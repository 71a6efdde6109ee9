"""Shared fixtures for the paper-reproduction benchmarks.

Every benchmark replays traces at ``REPRO_BENCH_SCALE`` (default 1.0 =
paper scale; set e.g. ``REPRO_BENCH_SCALE=0.1`` for a quick smoke pass).
Experiment results are cached per session so Table 5 reuses the
invalidation runs of Tables 3-4 instead of recomputing them, exactly as
the paper derives Table 5 from the same replays.

Each benchmark writes its paper-style table to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

import pytest

from repro import (
    DAYS,
    ExperimentConfig,
    ExperimentResult,
    RngRegistry,
    Trace,
    generate_trace,
    run_experiment,
)
from repro.api import build_protocol
from repro.obs import REPORT_EXPERIMENTS, experiment_label, run_matrix
from repro.replay import ParallelSweepRunner, audit_result
from repro.traces import PROFILES

RESULTS_DIR = Path(__file__).parent / "results"

#: Master seed of every benchmark trace and replay.
SEED = 42


def bench_scale() -> float:
    """Workload scale factor from the environment (1.0 = paper scale)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()


@pytest.fixture(scope="session")
def trace_cache() -> Dict[str, Trace]:
    """Traces generated once per session, keyed by profile name."""
    return {}


@pytest.fixture(scope="session")
def result_cache() -> Dict[tuple, ExperimentResult]:
    """Experiment results shared across benchmark modules."""
    return {}


@pytest.fixture(scope="session")
def harness(scale, trace_cache, result_cache):
    """Callable running (and caching) one replay experiment."""

    def get_trace(trace_name: str) -> Trace:
        trace = trace_cache.get(trace_name)
        if trace is None:
            profile = PROFILES[trace_name]
            if scale != 1.0:
                profile = profile.scaled(scale)
            trace = generate_trace(profile, RngRegistry(seed=SEED))
            trace_cache[trace_name] = trace
        return trace

    def run(trace_name: str, lifetime_days: float, protocol: str,
            **protocol_options) -> ExperimentResult:
        """Replay ``trace_name`` under ``build_protocol(protocol, ...)``."""
        key = (
            experiment_label(trace_name, lifetime_days, protocol),
            tuple(sorted(protocol_options.items())),
        )
        result = result_cache.get(key)
        if result is None:
            config = ExperimentConfig(
                trace=get_trace(trace_name),
                protocol=build_protocol(protocol, **protocol_options),
                # The lifetime is NOT scaled: with files scaled by s the
                # modification count becomes s * the paper's count, which
                # preserves the modification/request ratio the protocol
                # comparison is sensitive to.  At scale 1.0 the counts
                # match the paper's headers (72, 1148, 40, 144, 57, 576)
                # to within interval rounding (we observe 71/1147/39/143/
                # 57/571; SDSC-2.5d differs because one file count must
                # serve both SDSC lifetimes, see DESIGN.md §3).
                mean_lifetime=lifetime_days * DAYS,
                seed=SEED,
            )
            result = run_experiment(config)
            # Cross-check the run's accounting layers before anything
            # consumes it (see repro.replay.audit).
            audit_result(result)
            result_cache[key] = result
        return result

    workers = int(os.environ.get("REPRO_BENCH_PARALLEL", "0"))
    if workers:
        # Prewarm: replay the report's 18 points (six trace/lifetime rows
        # x three protocols), exactly the runs Tables 3-5 consume, across
        # worker processes.  Each point is the same hermetic
        # run_experiment the serial path uses, so no metric changes.
        # Checkpoints carry the report's labels: an interrupted session
        # resumes, and `repro report --from-checkpoints` at the same
        # scale renders them.
        runner = ParallelSweepRunner(
            workers=workers,
            checkpoint_dir=str(RESULTS_DIR / "checkpoints" / f"scale-{scale:g}"),
            resume=True,
            progress=print,
        )
        results = run_matrix(
            REPORT_EXPERIMENTS, scale=scale, seed=SEED, runner=runner
        )
        for label, result in results.items():
            audit_result(result)
            result_cache[(label, ())] = result

    run.get_trace = get_trace
    return run


def write_results(name: str, text: str) -> Path:
    """Persist a benchmark's paper-style table under benchmarks/results."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path
