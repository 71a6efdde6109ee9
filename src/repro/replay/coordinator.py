"""The time coordinator: lock-step trace replay (Section 5.1).

The paper: "a time coordinator is introduced to run the simulations in
lock step for every five minutes.  The coordinator first broadcasts the
current simulated time, then all the pseudo-clients send requests with
timestamps falling in the five minute interval after the current
simulated time.  After a pseudo-client finishes its requests, it sends a
reply back to the time coordinator.  After collecting replies from all
pseudo-clients, the time coordinator broadcasts a new simulated time
which is five minutes after the previous one.  The time coordinator also
coordinates the modifier process."

Note the two clocks: *trace time* (the timestamps in the trace, advanced
300 s per step) and the testbed's *wall clock* (our simulator's ``now``),
which advances only as fast as the work takes.  Latencies and iostat
utilisations are wall-clock quantities, exactly as in the paper.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..sim import Event, Simulator

__all__ = ["TimeCoordinator", "CoordinatorError"]


class CoordinatorError(RuntimeError):
    """A participant failed mid-interval; carries the interval bounds."""

    def __init__(self, message: str, trace_start: float, trace_end: float) -> None:
        super().__init__(message)
        self.trace_start = trace_start
        self.trace_end = trace_end

#: A participant: called with (trace_start, trace_end) for each interval;
#: starts that interval's work and returns an event firing when it is
#: done, or returns ``None`` when it has nothing due in the interval (so
#: an interval in which no participant has work schedules no event).
Participant = Callable[[float, float], Optional[Event]]


class TimeCoordinator:
    """Runs registered participants in lock-step trace-time intervals."""

    def __init__(self, sim: Simulator, interval: float = 300.0) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval = interval
        self._participants: List[Participant] = []
        #: Trace time at the start of the current interval.
        self.trace_time = 0.0
        self.intervals_completed = 0

    def register(self, participant: Participant) -> None:
        """Add a pseudo-client or modifier participant."""
        self._participants.append(participant)

    def run(self, duration: float):
        """Coordinator process: replay ``duration`` seconds of trace time.

        Start with ``sim.process(coordinator.run(trace.duration))``.
        Replies are awaited in registration order; a failed reply aborts
        the run with :class:`CoordinatorError` once the barrier reaches
        it.
        """
        if not self._participants:
            raise ValueError("no participants registered")
        while self.trace_time < duration:
            start = self.trace_time
            end = min(start + self.interval, duration)
            if not end > start:
                # Float underflow: start + interval == start.  Advancing
                # would loop forever on zero-width intervals.
                raise CoordinatorError(
                    f"interval {self.interval!r} is too small to advance "
                    f"trace time from {start!r}", start, end,
                )
            replies = []
            for participant in self._participants:
                reply = participant(start, end)
                if reply is not None:
                    # The barrier owns every reply's failure, including
                    # one that fails while it still waits on another.
                    reply.defuse()
                    replies.append(reply)
            try:
                # Barrier: wait for every busy participant's reply.
                for reply in replies:
                    yield reply
            except Exception as exc:
                # A participant failed mid-interval.  The interval did
                # not complete: trace_time/intervals_completed stay at
                # the last finished interval.
                raise CoordinatorError(
                    f"participant failed in trace interval "
                    f"[{start:g}, {end:g}): {exc!r}", start, end,
                ) from exc
            self.trace_time = end
            self.intervals_completed += 1
