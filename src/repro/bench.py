"""Kernel micro-benchmarks and the persisted kernel perf trajectory.

The replay experiments push millions of events per run, so the kernel's
events/second figure bounds the whole suite's runtime.  This module
measures raw scheduler throughput on five workload shapes (timeout
storm over 97 distinct delays, near-future sleep storm, process
ping-pong, chained callback hit flow, timeout storm over 1009 distinct
delays up to ~1000 s) and records the numbers in the tracked
``BENCH_kernel.json``.  End-to-end replay throughput is measured by
``perfbench/`` instead (see ``perfbench/README.md``).

The payload carries the git SHA, a timestamp, peak RSS and a
``machine_score`` — a fixed pure-Python calibration loop measured on the
same host, so comparisons across machines can be normalised instead of
trusting absolute events/second.

``compare_bench`` implements the regression gate: each benchmark present
in both payloads must be no slower than ``(1 - tolerance)`` times the
old (machine-normalised) rate.  ``python -m repro bench --compare
BENCH_kernel.json`` exits non-zero when the gate fails; CI runs it with
a looser tolerance because runner hardware varies run to run.
"""

from __future__ import annotations

import json
import resource
import subprocess
import time
from typing import Callable, Dict, List, Optional, Tuple

from .sim import Simulator, Store

__all__ = [
    "KERNEL_BENCHMARKS",
    "calibrate_machine",
    "run_kernel_benchmarks",
    "bench_payload",
    "git_sha",
    "write_payload",
    "compare_bench",
    "missing_baselines",
    "profile_kernel",
]

#: Gate: fail when a benchmark drops below (1 - tolerance) x the old rate.
DEFAULT_TOLERANCE = 0.15

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# kernel workloads — each returns (events_processed, elapsed_seconds)
# ---------------------------------------------------------------------------

def bench_timeout_storm(n: int) -> Tuple[int, float]:
    """Pre-scheduled callbacks sharing 97 distinct delays.

    All ``n`` entries are queued before the first one fires, and the
    ``i % 97`` second delays give long runs of same-time entries that
    only the insertion sequence orders.
    """
    sim = Simulator()
    fired = [0]

    def bump() -> None:
        fired[0] += 1

    t0 = time.perf_counter()
    for i in range(n):
        sim.call_later(float(i % 97), bump)
    sim.run()
    elapsed = time.perf_counter() - t0
    assert fired[0] == n
    return n, elapsed


def bench_sleep_storm(n: int) -> Tuple[int, float]:
    """One process sleeping in a tight loop (pooled one-shot timers)."""
    sim = Simulator()
    done = [0]

    def proc(sim):
        for _ in range(n):
            yield sim.sleep(0.001)
            done[0] += 1

    sim.process(proc(sim))
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert done[0] == n
    return n, elapsed


def bench_hit_path_ping_pong(n: int) -> Tuple[int, float]:
    """Two generator processes trading control through stores.

    Measures raw process-resume cost — the part the proxy hit path's
    callback chain avoids entirely.
    """
    sim = Simulator()
    ping, pong = Store(sim), Store(sim)

    def left(sim):
        for _ in range(n):
            ping.put(1)
            yield pong.get()

    def right(sim):
        for _ in range(n):
            yield ping.get()
            pong.put(1)

    procs = [sim.process(left(sim)), sim.process(right(sim))]
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert all(p.triggered for p in procs)
    return 2 * n, elapsed


def bench_hit_path_callbacks(n: int) -> Tuple[int, float]:
    """The zero-allocation hit flow: a chained ``call_later`` loop.

    Mirrors what ``ProxyCache.submit`` does per cache hit (lookup
    callback -> serve callback -> next request), with no Event, Timeout
    or generator in the loop.
    """
    sim = Simulator()
    fired = [0]

    def lookup() -> None:
        sim.call_later(0.0002, serve)

    def serve() -> None:
        fired[0] += 1
        if fired[0] < n:
            sim.call_later(0.0008, lookup)

    sim.call_later(0.0008, lookup)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert fired[0] == n
    return 2 * n, elapsed


def bench_bucketed_timeout_storm(n: int) -> Tuple[int, float]:
    """Pre-scheduled callbacks spread over 1009 distinct delays.

    ``(i * 37) % 1009`` second delays reach ~1000 s and are pushed far
    out of their firing order.  The name predates the one-heap queue
    and stays because it keys the committed ``BENCH_kernel.json``.
    """
    sim = Simulator()
    fired = [0]

    def bump() -> None:
        fired[0] += 1

    t0 = time.perf_counter()
    for i in range(n):
        sim.call_later(float((i * 37) % 1009), bump)
    sim.run()
    elapsed = time.perf_counter() - t0
    assert fired[0] == n
    return n, elapsed


#: name -> (workload, full_n, quick_n)
KERNEL_BENCHMARKS: Dict[str, Tuple[Callable[[int], Tuple[int, float]], int, int]] = {
    "timeout_storm": (bench_timeout_storm, 50_000, 10_000),
    "sleep_storm": (bench_sleep_storm, 50_000, 10_000),
    "hit_path_ping_pong": (bench_hit_path_ping_pong, 25_000, 5_000),
    "hit_path_callbacks": (bench_hit_path_callbacks, 50_000, 10_000),
    "bucketed_timeout_storm": (bench_bucketed_timeout_storm, 50_000, 10_000),
}


def calibrate_machine(loops: int = 2_000_000) -> float:
    """Fixed pure-Python loop; returns millions of iterations/second.

    Used to normalise events/second across hosts of different speeds so
    the regression gate compares scheduler efficiency, not hardware.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i & 7
    elapsed = time.perf_counter() - t0
    assert acc >= 0
    return loops / elapsed / 1e6


def run_kernel_benchmarks(
    quick: bool = False, repeats: int = 3
) -> Dict[str, Dict[str, float]]:
    """Run every kernel workload; best-of-``repeats`` events/second."""
    results: Dict[str, Dict[str, float]] = {}
    for name, (fn, full_n, quick_n) in KERNEL_BENCHMARKS.items():
        n = quick_n if quick else full_n
        best_rate, best_elapsed, events = 0.0, 0.0, 0
        for _ in range(max(1, repeats)):
            events, elapsed = fn(n)
            rate = events / elapsed if elapsed > 0 else float("inf")
            if rate > best_rate:
                best_rate, best_elapsed = rate, elapsed
        results[name] = {
            "events": events,
            "seconds": round(best_elapsed, 6),
            "events_per_sec": round(best_rate, 1),
        }
    return results


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """Short git SHA of the working tree's HEAD, or ``"unknown"``.

    Shared provenance hook: benchmark payloads and the ``repro report``
    run manifest both stamp their output with it.
    """
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB (Linux semantics)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def bench_payload(kind: str, benchmarks: Dict[str, Dict[str, float]]) -> dict:
    """Wrap benchmark results with provenance for the JSON trajectory."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "git_sha": git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine_score": round(calibrate_machine(), 3),
        "peak_rss_kb": peak_rss_kb(),
        "benchmarks": benchmarks,
    }


def write_payload(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _rate_of(bench: Dict[str, float]) -> Optional[float]:
    rate = bench.get("events_per_sec")
    return None if rate is None else float(rate)


def compare_bench(
    new: dict, old: dict, tolerance: float = DEFAULT_TOLERANCE
) -> List[str]:
    """Regression gate: list of failure strings (empty = pass).

    Rates are normalised by each payload's ``machine_score`` when both
    sides carry one, so a slower CI runner does not read as a kernel
    regression; only benchmarks present on both sides are compared.
    """
    failures: List[str] = []
    new_score = float(new.get("machine_score") or 0) or None
    old_score = float(old.get("machine_score") or 0) or None
    normalise = new_score is not None and old_score is not None
    old_benchmarks = old.get("benchmarks") or {}
    new_benchmarks = new.get("benchmarks") or {}
    for name, old_bench in old_benchmarks.items():
        new_bench = new_benchmarks.get(name)
        if new_bench is None:
            continue
        old_rate, new_rate = _rate_of(old_bench), _rate_of(new_bench)
        if old_rate is None or new_rate is None or old_rate <= 0:
            continue
        if normalise:
            old_rate /= old_score
            new_rate /= new_score
        if new_rate < old_rate * (1.0 - tolerance):
            failures.append(
                f"{name}: {new_rate:,.1f} vs baseline {old_rate:,.1f} "
                f"({new_rate / old_rate - 1.0:+.1%}, tolerance -{tolerance:.0%})"
            )
    return failures


def missing_baselines(new: dict, old: dict) -> List[str]:
    """Benchmark variants in ``new`` that the baseline has no entry for.

    A baseline written before a benchmark variant existed cannot gate
    that variant; callers report those by name ("no baseline — new
    variant") instead of failing.  Sorted for stable output.
    """
    old_names = set(old.get("benchmarks") or {})
    new_names = set(new.get("benchmarks") or {})
    return sorted(new_names - old_names)


# ---------------------------------------------------------------------------
# profiling
# ---------------------------------------------------------------------------

def profile_kernel(
    name: str = "sleep_storm", n: Optional[int] = None, out=None
) -> None:
    """Run one kernel workload under a profiler and print the hot spots.

    Uses ``pyinstrument`` when importable (nicer flame output),
    otherwise the stdlib ``cProfile``.
    """
    import sys

    out = out or sys.stdout
    fn, full_n, _quick_n = KERNEL_BENCHMARKS[name]
    n = n or full_n
    try:
        from pyinstrument import Profiler  # optional, never a hard dep
    except ImportError:
        Profiler = None
    if Profiler is not None:
        profiler = Profiler()
        profiler.start()
        fn(n)
        profiler.stop()
        print(profiler.output_text(unicode=True, color=False), file=out)
        return
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    fn(n)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=out)
    stats.strip_dirs().sort_stats("cumulative").print_stats(25)
