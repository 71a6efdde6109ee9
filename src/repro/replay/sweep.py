"""Parameter-sweep utilities.

The benchmarks hand-roll their sweeps; this module packages the pattern
for users: run a grid of (label, config) experiments, collect results,
and render a metric table.  Configurations derive from a base config via
``dataclasses.replace``-style keyword overrides, so sweeps stay
seed-consistent by construction.

Example::

    from repro.replay import ExperimentConfig, sweep, sweep_table

    base = ExperimentConfig(trace=trace, protocol=invalidation(),
                            mean_lifetime=14 * DAYS)
    results = sweep(base, [
        ("16MB", {"proxy_cache_bytes": 16 << 20}),
        ("64MB", {"proxy_cache_bytes": 64 << 20}),
    ])
    print(sweep_table(results, ["total_messages", "avg_latency"]))
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .experiment import ExperimentConfig, ExperimentResult, run_experiment

__all__ = [
    "SweepPoint",
    "SweepPointError",
    "SweepResult",
    "derive_point_seed",
    "point_config",
    "sweep",
    "sweep_table",
]

#: One sweep point: a display label plus config-field overrides.
SweepPoint = Tuple[str, Dict[str, object]]


class SweepPointError(ValueError):
    """A sweep point's overrides do not form a valid configuration.

    Carries the point's label so a bad cell in a big grid is locatable
    without decoding a bare ``dataclasses.replace`` traceback.
    """

    def __init__(self, label: str, message: str) -> None:
        super().__init__(f"sweep point {label!r}: {message}")
        self.label = label


def derive_point_seed(base_seed: int, label: str) -> int:
    """Deterministic per-point seed from the base seed and point label.

    Stable across processes and Python versions (unlike ``hash()``), so a
    sweep executed serially, in parallel, or resumed from checkpoints
    sees bit-identical RNG streams for every point.
    """
    digest = hashlib.sha256(f"{base_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def point_config(
    base: ExperimentConfig,
    label: str,
    overrides: Dict[str, object],
    derive_seeds: bool = False,
) -> ExperimentConfig:
    """Derive one point's config from ``base``; the single construction
    path shared by the serial and parallel sweep executors.

    Args:
        derive_seeds: give the point its own seed (from
            :func:`derive_point_seed`) unless the overrides set one
            explicitly.  Off by default: protocol-comparison sweeps rely
            on every point seeing the identical seeded workload.

    Raises:
        SweepPointError: on an unknown config field or a field value the
            config rejects, naming the offending point.
    """
    fields = dict(overrides)
    if derive_seeds and "seed" not in fields:
        fields["seed"] = derive_point_seed(base.seed, label)
    valid = {f.name for f in dataclasses.fields(base)}
    unknown = sorted(set(fields) - valid)
    if unknown:
        raise SweepPointError(
            label,
            f"unknown config field(s) {', '.join(map(repr, unknown))}; "
            f"valid fields are {', '.join(sorted(valid))}",
        )
    try:
        return dataclasses.replace(base, **fields)
    except (TypeError, ValueError) as exc:
        raise SweepPointError(label, str(exc)) from exc


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """A labelled experiment result from a sweep."""

    label: str
    config: ExperimentConfig
    result: ExperimentResult


def sweep(
    base: ExperimentConfig,
    points: Sequence[SweepPoint],
    runner: Optional[Callable[[ExperimentConfig], ExperimentResult]] = None,
    derive_seeds: bool = False,
) -> List[SweepResult]:
    """Run the experiment grid derived from ``base``.

    Args:
        base: the configuration every point derives from.
        points: ``(label, {field: value, ...})`` overrides.  Overriding
            ``protocol`` per point is the common case for protocol
            comparisons.
        runner: ``None`` (the default) to run each point serially with
            :func:`run_experiment`; a per-config callable (the serial
            path with another runner, the injection point for
            caching/testing); or a sweep-level executor exposing
            ``run_sweep(base, points, derive_seeds=...)`` such as
            :class:`repro.replay.parallel.ParallelSweepRunner`.
        derive_seeds: see :func:`point_config`.
    """
    run_sweep = getattr(runner, "run_sweep", None)
    if run_sweep is not None:
        return run_sweep(base, points, derive_seeds=derive_seeds)
    if runner is None:
        runner = run_experiment
    results = []
    for label, overrides in points:
        config = point_config(base, label, overrides, derive_seeds=derive_seeds)
        results.append(
            SweepResult(label=label, config=config, result=runner(config))
        )
    return results


def sweep_table(
    results: Sequence[SweepResult],
    metrics: Sequence[str],
    float_format: str = "{:.3f}",
) -> str:
    """Render sweep results as a label x metric text table.

    ``metrics`` are attribute names on :class:`ExperimentResult`
    (``"total_messages"``, ``"avg_latency"``, ``"cpu_utilization"``, ...).
    """
    if not results:
        raise ValueError("no sweep results to format")
    label_width = max(12, *(len(r.label) + 2 for r in results))
    widths = [max(12, len(m) + 2) for m in metrics]
    header = f"{'':{label_width}s}" + "".join(
        f"{m:>{w}s}" for m, w in zip(metrics, widths)
    )
    lines = [header]
    for item in results:
        cells = []
        for metric, width in zip(metrics, widths):
            value = getattr(item.result, metric)
            text = (
                float_format.format(value)
                if isinstance(value, float)
                else str(value)
            )
            cells.append(f"{text:>{width}s}")
        lines.append(f"{item.label:{label_width}s}" + "".join(cells))
    return "\n".join(lines)
