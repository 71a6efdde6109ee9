"""Replay benchmark: wall-clock replay throughput and the paper's metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload short-lived --seed 1 --seconds 15 --trace 0

The program under test is the ``repro`` package in ``src/`` of the same
checkout; nothing is installed.  A workload is a *round* of twenty
replays under the paper's invalidation protocol: ten synthetic traces
(independent seeds) for each of two rows of the paper's Tables 3-4, a row
being one paper trace at one mean document lifetime.  Each run

1. generates the round's traces from ``--seed`` and builds the experiment
   configs, several times over, and reports the median as ``setup_s``;
2. replays the round once untimed (warm-up, and the reference results);
3. replays the round back-to-back for ``--seconds`` seconds in all, split
   over ``TIMING_PROCESSES`` fresh interpreters run one after another, and
   reports ``replay_rps_normalized``: the round's requests over the sum of
   each trace's median replay time;
4. checks the outputs: every timed replay must reproduce its warm-up
   result exactly, the strong-consistency invariants must hold, and each
   trace replayed on the reference (slow) kernel path with the consistency
   auditor attached must give the same result with no audited violation.

Timings are normalised to a reference machine speed.  On a shared host the
interpreter's speed drifts by tens of percent from minute to minute, which
no statistic over one run's samples removes.  So every timed call is
preceded by a fixed pure-Python calibration loop, and its wall time is
scaled by (measured loop speed / ``REF_SPEED``): a change that makes the
program slower still reads slower, while the host's drift cancels.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` profiles the
timed rounds instead and prints per-layer metrics (self time of each
``repro`` subpackage, kernel events, protocol counters), and writes the
benchmark's spans to ``.bench_build/perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (timed rounds), ``failed`` (timed rounds with a
result that differs from the warm-up) and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

from layers import LayerProfiler  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: Loop speed (million iterations per second of ``machine_speed``'s loop)
#: that timings are scaled to.  Any fixed value works: only ratios between
#: runs of the benchmark mean anything.
REF_SPEED = 25.0
#: Iterations of the calibration loop, about 15 ms at ``REF_SPEED``.
CALIBRATION_LOOPS = 300_000
#: Setup repetitions behind the median ``setup_s``.
SETUP_REPEATS = 21
#: Fewest timed rounds in one timing process, even when a round outlasts
#: its share of ``--seconds``.
MIN_ROUNDS = 1
#: Fresh interpreters that share the timed rounds of an end-to-end run.
#: Each process has its own address-space layout and string-hash seed,
#: which shift its replay speed by a few percent for its whole life (ten
#: processes timing the same round spread about 0.04, after calibration);
#: pooling the rounds of several processes averages that shift.
TIMING_PROCESSES = 5
#: Fraction of each paper trace's requests, files and clients replayed.
SCALE = 0.025
#: Synthetic traces per row in one round.  Popular documents get a large
#: share of requests, so one trace's totals swing with whether its few
#: head documents happen to be modified; independent copies average that
#: out of the per-round figures.
COPIES = 10
DAY = 86400.0


@dataclass(frozen=True)
class Workload:
    """One round of replays; ``--seed`` supplies every random draw.

    Attributes:
        rows: (paper trace, mean document lifetime in days) pairs, each a
            row of the paper's Tables 3-4.  Every trace keeps its catalog
            profile (``repro.traces.PROFILES``: popularity, re-read
            probability), scaled to ``SCALE``.
        shards / batch_max: accelerator cluster settings (``shards=1`` is
            the paper's single accelerator; see ``ExperimentConfig``).
    """

    rows: Tuple[Tuple[str, float], ...]
    shards: int = 1
    batch_max: int = 0


#: The paper's Tables 3-4 rows: EPA 50 d, SASK 14 d, ClarkNet 50 d (Table 3)
#: and NASA 7 d, SDSC 25 d, SDSC 2.5 d (Table 4).  ``long-lived`` takes the
#: two 50-day rows, where documents seldom change (0.02 and 0.008
#: modifications per document over the trace) and the proxy's hit path
#: carries the load; ``short-lived`` the two rows with the most
#: modifications per document (SDSC 2.5 d: 0.4, SASK 14 d: 0.57).
#: ``sharded-short-lived`` batches only the invalidations one modification
#: fans out to a proxy at once (window 0): with a 1 s window the cluster
#: occasionally leaves a copy un-invalidated, and a workload must run
#: correctly.
LONG_LIVED = (("EPA", 50.0), ("ClarkNet", 50.0))
SHORT_LIVED = (("SDSC", 2.5), ("SASK", 14.0))
WORKLOADS: Dict[str, Workload] = {
    "long-lived": Workload(rows=LONG_LIVED),
    "short-lived": Workload(rows=SHORT_LIVED),
    "sharded-short-lived": Workload(rows=SHORT_LIVED, shards=4, batch_max=32),
}


def machine_speed() -> float:
    """Million iterations per second of a fixed pure-Python loop, now."""
    acc = 0
    t0 = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        acc += i & 7
    return CALIBRATION_LOOPS / (time.perf_counter() - t0) / 1e6


def timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn``; return its result and its wall time at ``REF_SPEED``."""
    speed = machine_speed()
    t0 = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - t0) * speed / REF_SPEED


def metric_units(section: str) -> Dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def import_program() -> SimpleNamespace:
    """Import ``repro`` from this checkout's ``src/``; exit 2 if absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
        from repro.api import build_protocol, run_experiment
        from repro.replay import ExperimentConfig
        from repro.replay.serialize import result_to_dict
        from repro.sim import RngRegistry
        from repro.traces import PROFILES, generate_trace
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if src.resolve() not in Path(repro.__file__).resolve().parents:
        print(
            f"perfbench: imported repro from {repro.__file__}, not from {src}",
            file=sys.stderr,
        )
        sys.exit(2)
    return SimpleNamespace(
        build_protocol=build_protocol,
        run_experiment=run_experiment,
        ExperimentConfig=ExperimentConfig,
        result_to_dict=result_to_dict,
        RngRegistry=RngRegistry,
        generate_trace=generate_trace,
        PROFILES=PROFILES,
    )


def build_round(api: SimpleNamespace, workload: Workload, seed: int) -> list:
    """Generate the round's traces for ``seed``; one config per trace."""
    configs = []
    for index, (trace_name, lifetime_days) in enumerate(workload.rows):
        prof = api.PROFILES[trace_name].scaled(SCALE)
        for copy in range(COPIES):
            trace_seed = seed * 100 + index * COPIES + copy
            configs.append(
                api.ExperimentConfig(
                    trace=api.generate_trace(prof, api.RngRegistry(trace_seed)),
                    protocol=api.build_protocol("invalidation"),
                    mean_lifetime=lifetime_days * DAY,
                    seed=trace_seed,
                    shards=workload.shards,
                    batch_max=workload.batch_max,
                )
            )
    return configs


def digest(api: SimpleNamespace, result) -> str:
    """Hash of every reported field of a result except ``chaos``.

    ``chaos`` exists only on audited runs; dropping it lets the audited
    reference replay be compared with the plain timed ones.
    """
    data = api.result_to_dict(result)
    data.pop("chaos", None)
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def invariant_errors(config, result) -> List[str]:
    """Checks that hold for every correct invalidation replay."""
    errors = []
    counters = result.counters
    requests = len(config.trace.records)
    name = config.trace.name
    if result.total_requests != requests or counters.requests != requests:
        errors.append(f"{name}: replayed {counters.requests} of {requests} requests")
    if counters.failed:
        errors.append(f"{name}: {counters.failed} requests failed")
    if counters.hits + counters.misses != counters.requests:
        errors.append(f"{name}: hits + misses != requests")
    if counters.violations:
        errors.append(f"{name}: {counters.violations} consistency violations")
    if result.cluster is not None:
        routed = sum(s["requests_routed"] for s in result.cluster["per_shard"].values())
        if routed != result.origin_requests:
            errors.append(
                f"{name}: shards routed {routed} requests, origin saw "
                f"{result.origin_requests}"
            )
    return errors


def verify_reference(
    api: SimpleNamespace, configs: list, expected: List[str]
) -> List[str]:
    """Replay each trace on the slow kernel path with the auditor attached."""
    errors = []
    for config, want in zip(configs, expected):
        audited = dataclasses.replace(config, fast_path=False, audit=True)
        result = api.run_experiment(audited)
        errors += invariant_errors(audited, result)
        if result.chaos["violation_count"]:
            errors.append(
                f"{config.trace.name}: auditor found "
                f"{result.chaos['violation_count']} violations"
            )
        if digest(api, result) != want:
            errors.append(f"{config.trace.name}: slow path differs from fast path")
    return errors


def totals(results: list) -> Dict[str, float]:
    """Sum the round's results into the quantities the metrics divide."""
    keys = (
        "total_requests", "hits", "total_messages", "message_bytes",
        "origin_requests", "invalidations", "invalidations_sent",
        "files_modified", "sitelist_entries",
    )
    sums = {key: float(sum(getattr(r, key) for r in results)) for key in keys}
    sums["latency_s"] = sum(r.counters.latency.total for r in results)
    sums["batches"] = sum(r.cluster["batches_delivered"] for r in results if r.cluster)
    sums["batched"] = sum(
        r.cluster["batched_invalidations_delivered"] for r in results if r.cluster
    )
    sums["imbalance"] = statistics.mean(
        r.cluster["imbalance_ratio"] if r.cluster else 1.0 for r in results
    )
    return sums


def paper_metrics(t: Dict[str, float]) -> Dict[str, float]:
    """The paper's outcomes (Tables 3-4) over the round, per request.

    The hit ratio is reported per layer instead: it swings more with the
    seed (through the few most popular documents) than the bounds here
    allow, and messages per request already moves with it.
    """
    return {
        "messages_per_request": t["total_messages"] / t["total_requests"],
        "client_latency_ms": t["latency_s"] * 1000.0 / t["total_requests"],
    }


def layer_counts(t: Dict[str, float]) -> Dict[str, float]:
    """Per-layer counters over the round."""
    # A batched INVALIDATE carries several (url, client) pairs; every other
    # INVALIDATE carries one.
    pairs = t["batched"] + t["invalidations"] - t["batches"]
    return {
        "proxy_hit_ratio": t["hits"] / t["total_requests"],
        "origin_requests_per_request": t["origin_requests"] / t["total_requests"],
        "invalidations_per_modification": (
            t["invalidations_sent"] / max(1.0, t["files_modified"])
        ),
        "invalidation_batch_fill": pairs / max(1.0, t["invalidations"]),
        "sitelist_entries": t["sitelist_entries"],
        "net_kb_per_request": t["message_bytes"] / 1024.0 / t["total_requests"],
        "shard_imbalance_ratio": t["imbalance"],
    }


def timed_rounds(
    api: SimpleNamespace,
    configs: list,
    seconds: float,
    min_rounds: int,
    replay: Callable[[object], object],
) -> Tuple[List[List[float]], List[List[str]]]:
    """Replay rounds until ``seconds`` have passed.

    Returns each config's replay times at ``REF_SPEED``, one per round, and
    each round's result digests.
    """
    times: List[List[float]] = [[] for _ in configs]
    rounds: List[List[str]] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        digests = []
        for config, config_times in zip(configs, times):
            gc.collect()
            result, elapsed = timed(lambda: replay(config))
            config_times.append(elapsed)
            digests.append(digest(api, result))
        rounds.append(digests)
    return times, rounds


def timing_worker(args: argparse.Namespace) -> int:
    """Body of one timing process: print its rounds' times and digests."""
    api = import_program()
    configs = build_round(api, WORKLOADS[args.workload], args.seed)
    api.run_experiment(configs[0])  # first-call costs (imports, caches)
    times, rounds = timed_rounds(
        api, configs, args.seconds, MIN_ROUNDS, api.run_experiment
    )
    print(json.dumps({"times": times, "rounds": rounds}))
    return 0


def timed_in_processes(
    args: argparse.Namespace, n_configs: int
) -> Tuple[List[List[float]], List[List[str]]]:
    """Run ``TIMING_PROCESSES`` timing processes in turn; pool their rounds."""
    times: List[List[float]] = [[] for _ in range(n_configs)]
    rounds: List[List[str]] = []
    for _ in range(TIMING_PROCESSES):
        worker = subprocess.run(
            [
                sys.executable, __file__, "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds / TIMING_PROCESSES),
                "--timing-worker",
            ],
            stdout=subprocess.PIPE, text=True, check=True, timeout=30,
        )
        data = json.loads(worker.stdout.splitlines()[-1])
        for config_times, worker_times in zip(times, data["times"]):
            config_times.extend(worker_times)
        rounds += data["rounds"]
    return times, rounds


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--timing-worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.timing_worker:
        return timing_worker(args)
    workload = WORKLOADS[args.workload]

    spans = SpanRecorder(enabled=bool(args.trace))
    with spans.span("import"):
        api = import_program()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        with spans.span("setup.build_round"):
            configs, elapsed = timed(lambda: build_round(api, workload, args.seed))
        setup_times.append(elapsed)

    def replay(config):
        with spans.span(f"replay.{config.trace.name}"):
            return api.run_experiment(config)

    with spans.span("warmup"):
        warm = [replay(config) for config in configs]
    expected = [digest(api, r) for r in warm]
    errors = [e for c, r in zip(configs, warm) for e in invariant_errors(c, r)]
    t = totals(warm)
    if t["files_modified"] < 1 or t["invalidations_sent"] < 1:
        errors.append("no modification reached the accelerator")

    if args.trace:
        profiler = LayerProfiler(package_root=ROOT / "src" / "repro")
        with spans.span("timed"):
            times, rounds = timed_rounds(
                api, configs, args.seconds, 1,
                lambda config: profiler.profile(lambda: replay(config)),
            )
        metrics = profiler.layer_metrics(
            requests=len(rounds) * int(t["total_requests"])
        )
        metrics.update(layer_counts(t))
        units = metric_units("per_layer")
    else:
        # The timing processes call the program directly: end-to-end runs
        # record no spans.
        times, rounds = timed_in_processes(args, len(configs))
        # Per-trace medians, so a stall in one replay is dropped without
        # discarding the rest of its round.
        round_s = sum(statistics.median(config_times) for config_times in times)
        metrics = {
            "replay_rps_normalized": t["total_requests"] / round_s,
            "setup_s": statistics.median(setup_times),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics.update(paper_metrics(t))
        units = metric_units("end_to_end")
    bad = sum(digests != expected for digests in rounds)
    if bad:
        errors.append(f"{bad} timed rounds differ from the warm-up results")

    with spans.span("verify.reference_path"):
        errors += verify_reference(api, configs, expected)

    if args.trace:
        spans.write(
            ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}.jsonl"
        )
    for error in errors:
        print(f"perfbench: {args.workload} seed {args.seed}: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": len(rounds),
                "failed": bad,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
