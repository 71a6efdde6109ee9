"""The modifier: drives document changes during a replay.

The schedule (which file changes at which tick) is pre-generated from a
seeded stream, so all protocol runs of the same experiment replay exactly
the same modification history — the paper achieves comparability by
replaying the same traces; we additionally pin the modification randomness.

At each tick the modifier performs the paper's two steps: a ``touch``
(update the file's last-modified time in the store) and a ``check-in``
(notify the accelerator, the paper's "notify" detection approach).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..sim import Simulator
from .lifetime import modification_interval

__all__ = ["Modification", "generate_schedule", "Modifier"]


@dataclass(frozen=True)
class Modification:
    """One scheduled document change."""

    time: float
    url: str


def generate_schedule(
    urls: Sequence[str],
    duration: float,
    mean_lifetime_seconds: float,
    rng: random.Random,
) -> List[Modification]:
    """Pre-generate the modification schedule for a replay.

    One uniform-random document is modified every
    ``mean_lifetime / len(urls)`` seconds, starting one interval in — the
    paper's fixed-interval modifier, yielding geometric lifetimes.
    """
    if not urls:
        raise ValueError("urls must be non-empty")
    interval = modification_interval(len(urls), mean_lifetime_seconds)
    schedule = []
    t = interval
    while t <= duration:
        schedule.append(Modification(time=t, url=urls[rng.randrange(len(urls))]))
        t += interval
    return schedule


class Modifier:
    """Replays a modification schedule as a coordinator participant.

    See :class:`repro.replay.coordinator.Participant` for the contract.

    Args:
        sim: the simulator.
        schedule: pre-generated (time, url) list, time-ascending.
        touch: callback updating the document's mtime (the file system).
        check_in: optional callback notifying the accelerator (the paper's
            check-in utility); ``None`` for protocols without server-side
            change detection hooks (TTL / polling, where only the file
            mtime matters).
        overhead: wall seconds the modifier spends per touch.
    """

    def __init__(
        self,
        sim: Simulator,
        schedule: Sequence[Modification],
        touch: Callable[[str], None],
        check_in: Optional[Callable[[str], None]] = None,
        overhead: float = 0.0,
    ) -> None:
        self.sim = sim
        self.schedule = list(schedule)
        self.touch = touch
        self.check_in = check_in
        self.overhead = overhead
        #: How many schedule entries have fired so far.
        self.modifications_applied = 0
        #: Trace time of the next scheduled modification; ``inf`` after the last.
        self.next_due = self.schedule[0].time if self.schedule else math.inf

    def run_interval(
        self, trace_end: float, at: float, arrive: Callable[[float], None]
    ) -> None:
        """Coordinator participant: apply modifications before ``trace_end``.

        Each modification is a touch followed by the optional check-in,
        then the per-touch ``overhead``.  The first is applied at wall
        time ``at``; ``arrive`` gets the instant the last one's overhead
        ends.
        """
        self.sim.call_at(at, self._apply, trace_end, arrive)

    def _apply(self, trace_end: float, arrive: Callable[[float], None]) -> None:
        """Apply the next due modification; the rest follow ``overhead`` apart."""
        schedule = self.schedule
        while True:
            mod = schedule[self.modifications_applied]
            self.modifications_applied += 1
            self.next_due = (
                schedule[self.modifications_applied].time
                if self.modifications_applied < len(schedule)
                else math.inf
            )
            self.touch(mod.url)
            if self.check_in is not None:
                self.check_in(mod.url)
            if not self.next_due < trace_end:
                arrive(self.sim.now + self.overhead)
                return
            if self.overhead > 0:
                self.sim.call_later(self.overhead, self._apply, trace_end, arrive)
                return
