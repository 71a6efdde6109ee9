"""Chaos campaigns: randomized fault schedules + a consistency auditor.

The paper proves strong consistency on three hand-written failure
scenarios; this package *checks* it under arbitrary seeded combinations
of crashes, partitions, lossy/duplicating/reordering links and clock
skew, and shrinks any violating schedule to a minimal reproducer.

Entry points: :func:`run_campaign` (library), ``python -m repro chaos``
(CLI).  See ``docs/chaos.md``.

The fault schedules and the auditor are defined in the replay package
(:mod:`repro.replay.faults`, :mod:`repro.replay.auditor`), because every
replay arms the one and runs the other; they are re-exported here.
"""

from ..replay.auditor import ConsistencyAuditor, ViolationRecord
from ..replay.faults import (
    FAULT_KINDS,
    MAX_CLOCK_SKEW,
    Fault,
    FaultSchedule,
    apply_schedule,
    random_schedule,
)
from .campaign import CampaignReport, ScheduleVerdict, run_campaign, shrink_schedule

__all__ = [
    "Fault",
    "FaultSchedule",
    "FAULT_KINDS",
    "MAX_CLOCK_SKEW",
    "random_schedule",
    "apply_schedule",
    "ConsistencyAuditor",
    "ViolationRecord",
    "ScheduleVerdict",
    "CampaignReport",
    "run_campaign",
    "shrink_schedule",
]
