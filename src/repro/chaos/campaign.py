"""Chaos campaigns: sample N schedules, audit each, shrink what breaks.

``run_campaign`` is the one-command answer to "did this change break
strong consistency under faults?":

1. run the configuration once fault-free (the *baseline*) to measure the
   replay horizon faults are sampled within — and to confirm the
   protocol is clean before any fault is thrown at it;
2. derive one deterministic schedule per campaign slot via the
   :func:`repro.replay.sweep.derive_point_seed` convention (so a
   campaign re-run, resumed run, or parallel run sees bit-identical
   schedules);
3. run every schedule — serially or through a
   :class:`repro.replay.ParallelSweepRunner` (atomic JSON checkpoints,
   resume, per-point timeout) — with the
   :class:`~repro.replay.auditor.ConsistencyAuditor` attached;
4. **shrink** every violating schedule to a minimal reproducer with a
   greedy fault-removal loop: repeatedly drop the first fault whose
   removal keeps the violation alive, until no single removal does.

For lease-granting protocols the campaign raises the accelerator's
``lease_grace`` above :data:`~repro.replay.faults.MAX_CLOCK_SKEW`, the
deployment rule that makes bounded clock skew survivable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..api import run_experiment, run_sweep
from ..replay.experiment import ExperimentConfig, ExperimentResult
from ..replay.faults import MAX_CLOCK_SKEW, FaultSchedule, random_schedule
from ..replay.sweep import derive_point_seed

__all__ = [
    "ScheduleVerdict",
    "CampaignReport",
    "run_campaign",
    "shrink_schedule",
]


@dataclass(frozen=True)
class ScheduleVerdict:
    """The audited outcome of one schedule's replay."""

    label: str
    ok: bool
    fault_count: int
    violation_count: int
    stale_serves: int
    allowed_staleness: Dict[str, int]
    messages_sent: int
    messages_lost: int
    duplicates_delivered: int
    invalidations_abandoned: int
    failed_requests: int
    wall_time: float
    schedule: Dict[str, Any]
    violations: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form for campaign reports."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CampaignReport:
    """Everything one campaign produced."""

    protocol: str
    trace_name: str
    strong: bool
    seed: int
    num_schedules: int
    verdicts: Tuple[ScheduleVerdict, ...]
    #: Minimal reproducers for violating schedules: label -> shrunk
    #: schedule dict (empty when the campaign is clean).
    reproducers: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no schedule produced a violation."""
        return all(v.ok for v in self.verdicts)

    @property
    def total_violations(self) -> int:
        """Strong-consistency violations summed across all schedules."""
        return sum(v.violation_count for v in self.verdicts)

    @property
    def total_stale_serves(self) -> int:
        """Stale serves summed across all schedules."""
        return sum(v.stale_serves for v in self.verdicts)

    def allowed_staleness(self) -> Dict[str, int]:
        """Allowed-staleness totals by reason, across all schedules."""
        totals: Dict[str, int] = {}
        for verdict in self.verdicts:
            for reason, count in verdict.allowed_staleness.items():
                totals[reason] = totals.get(reason, 0) + count
        return totals

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (the ``repro chaos --json`` payload)."""
        return {
            "protocol": self.protocol,
            "trace": self.trace_name,
            "strong": self.strong,
            "seed": self.seed,
            "num_schedules": self.num_schedules,
            "ok": self.ok,
            "total_violations": self.total_violations,
            "total_stale_serves": self.total_stale_serves,
            "allowed_staleness": self.allowed_staleness(),
            "verdicts": [v.to_dict() for v in self.verdicts],
            "reproducers": dict(self.reproducers),
        }


def _with_lease_grace(config: ExperimentConfig) -> ExperimentConfig:
    """Apply the clock-skew deployment rule for lease-granting protocols.

    Bounded skew (``|skew| <= MAX_CLOCK_SKEW``) is survivable iff the
    server keeps invalidating entries for a grace at least that long
    after lease expiry; plain invalidation has infinite leases, so skew
    cannot touch it and the config is returned unchanged.
    """
    accel = config.protocol.accelerator
    if not accel.grant_leases or accel.lease_grace > MAX_CLOCK_SKEW:
        return config
    protocol = dataclasses.replace(
        config.protocol,
        accelerator=dataclasses.replace(accel, lease_grace=MAX_CLOCK_SKEW + 2.0),
    )
    return dataclasses.replace(config, protocol=protocol)


def _verdict(
    label: str, schedule: FaultSchedule, result: ExperimentResult
) -> ScheduleVerdict:
    chaos = result.chaos or {}
    network = chaos.get("network", {})
    return ScheduleVerdict(
        label=label,
        ok=result.violations == 0,
        fault_count=len(schedule),
        violation_count=result.violations,
        stale_serves=result.stale_serves,
        allowed_staleness=dict(chaos.get("allowed_staleness", {})),
        messages_sent=int(network.get("messages_sent", 0)),
        messages_lost=int(network.get("messages_lost", 0)),
        duplicates_delivered=int(network.get("duplicates_delivered", 0)),
        invalidations_abandoned=int(network.get("invalidations_abandoned", 0)),
        failed_requests=int(result.counters.failed),
        wall_time=result.wall_time,
        schedule=schedule.to_dict(),
        violations=list(chaos.get("violations", [])),
    )


def shrink_schedule(
    base: ExperimentConfig,
    schedule: FaultSchedule,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[FaultSchedule, int]:
    """Greedily shrink a violating schedule to a minimal reproducer.

    Repeatedly re-runs the experiment with one fault removed; a removal
    is kept whenever the violation survives it.  Terminates when no
    single removal keeps the violation alive (a local minimum: every
    remaining fault is necessary).  Deterministic: every re-run replays
    the same config, and each fault carries its own RNG seed.

    Returns ``(shrunk schedule, violation count of the shrunk run)``.
    """

    def violations_of(candidate: FaultSchedule) -> int:
        config = dataclasses.replace(base, fault_schedule=candidate)
        return run_experiment(config).violations

    current = schedule
    count = violations_of(current)
    if count == 0:
        return current, 0
    changed = True
    while changed and len(current) > 0:
        changed = False
        for index in range(len(current)):
            candidate = current.without(index)
            candidate_count = violations_of(candidate)
            if candidate_count > 0:
                if progress is not None:
                    progress(
                        f"[shrink] dropped fault {index} "
                        f"({len(candidate)} left, "
                        f"{candidate_count} violation(s))"
                    )
                current, count = candidate, candidate_count
                changed = True
                break
    return current, count


def run_campaign(
    base: ExperimentConfig,
    num_schedules: int,
    seed: int = 7,
    max_faults: int = 5,
    runner=None,
    shrink: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Run a chaos campaign against one (protocol, trace) configuration.

    Args:
        base: the experiment configuration to stress; its own
            ``fault_schedule`` / ``audit`` fields are overridden.
        num_schedules: how many random schedules to sample and replay.
        seed: campaign seed; per-schedule seeds derive from it via
            :func:`derive_point_seed`, so they are independent of the
            experiment's workload seed.
        max_faults: cap on faults per schedule (1..max sampled).
        runner: optional sweep executor (e.g.
            :class:`repro.replay.ParallelSweepRunner` for parallel,
            checkpointed, resumable execution); ``None`` runs serially.
        shrink: shrink violating schedules to minimal reproducers.
        progress: optional line-oriented progress callback.
    """
    if num_schedules < 1:
        raise ValueError("need at least one schedule")

    def emit(line: str) -> None:
        if progress is not None:
            progress(line)

    base = _with_lease_grace(
        dataclasses.replace(base, fault_schedule=None, audit=True)
    )
    strong = base.protocol.strong

    emit("[chaos] baseline (fault-free) run...")
    baseline_result = run_experiment(base)
    horizon = max(baseline_result.wall_time, 1.0)
    baseline = _verdict(
        "baseline",
        FaultSchedule(seed=seed, horizon=horizon, faults=()),
        baseline_result,
    )
    emit(
        f"[chaos] baseline: wall={horizon:.1f}s "
        f"violations={baseline.violation_count}"
    )

    proxies = [f"proxy-{i}" for i in range(base.num_pseudo_clients)]
    shards = (
        [f"shard-{i}" for i in range(base.shards)] if base.shards > 1 else ()
    )
    schedules: Dict[str, FaultSchedule] = {}
    points = []
    for i in range(num_schedules):
        label = f"chaos-{i:04d}"
        schedule = random_schedule(
            derive_point_seed(seed, label), horizon, proxies,
            max_faults=max_faults, shards=shards,
        )
        schedules[label] = schedule
        points.append((label, {"fault_schedule": schedule, "audit": True}))

    results = run_sweep(base, points, runner=runner)

    verdicts: List[ScheduleVerdict] = [baseline]
    for item in results:
        verdict = _verdict(item.label, schedules[item.label], item.result)
        verdicts.append(verdict)
        status = "ok" if verdict.ok else f"{verdict.violation_count} VIOLATION(S)"
        emit(
            f"[chaos] {verdict.label}: {status} "
            f"faults={verdict.fault_count} stale={verdict.stale_serves} "
            f"lost={verdict.messages_lost}"
        )

    reproducers: Dict[str, Dict[str, Any]] = {}
    if shrink:
        for verdict in verdicts:
            if verdict.ok or verdict.label == "baseline":
                continue
            emit(f"[chaos] shrinking {verdict.label}...")
            shrunk, count = shrink_schedule(
                base, schedules[verdict.label], progress=progress
            )
            emit(
                f"[chaos] {verdict.label}: minimal reproducer has "
                f"{len(shrunk)} fault(s), {count} violation(s)"
            )
            reproducers[verdict.label] = {
                "violation_count": count,
                "schedule": shrunk.to_dict(),
                "faults": shrunk.describe(),
            }

    return CampaignReport(
        protocol=base.protocol.name,
        trace_name=base.trace.name,
        strong=strong,
        seed=seed,
        num_schedules=num_schedules,
        verdicts=tuple(verdicts),
        reproducers=reproducers,
    )
