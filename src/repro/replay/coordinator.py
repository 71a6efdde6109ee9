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

The coordinator is a chain of plain callbacks, not a process, and it
pays only for busy participants.  Each participant exposes ``next_due``,
the trace time of its next record or modification, and is called only
in an interval that holds it; intervals in which nothing is due are
jumped over without a call or an event.  A called participant reports
the wall instant its interval's work ends through ``arrive(t)``, often
before that instant comes (a pseudo-client knows its last request's end
plus think time as soon as the request ends).  When the last busy
participant arrives, the next busy interval starts at once: each of its
participants is told the latest arrival instant ``at`` and schedules
its work from there (a pseudo-client submits its first request at
``at``, the modifier's first touch is a callback at ``at``).  So
:attr:`TimeCoordinator.trace_time` advances at the last arrival, not at
``at``, and the coordinator schedules only one event of its own: the
one at the end of the replay that sets :attr:`TimeCoordinator.finished`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol

from ..sim import Simulator

__all__ = ["TimeCoordinator", "CoordinatorError"]

_INF = float("inf")


class CoordinatorError(RuntimeError):
    """The replay cannot advance; carries the interval bounds."""

    def __init__(self, message: str, trace_start: float, trace_end: float) -> None:
        super().__init__(message)
        self.trace_start = trace_start
        self.trace_end = trace_end


class Participant(Protocol):
    """A pseudo-client or the modifier, as the coordinator drives it.

    ``next_due`` is the trace time of the participant's next record or
    modification, ``math.inf`` when it has none.  The coordinator calls
    ``run_interval(trace_end, at, arrive)`` only for an interval with
    ``next_due < trace_end``.  The participant then starts the work due
    before ``trace_end`` at wall time ``at`` (which may lie ahead of
    now) and calls ``arrive(t)`` exactly once, possibly before it
    returns, with the wall instant ``t >= at`` its work ends.  It sets
    ``next_due`` before it calls ``arrive``.
    """

    next_due: float

    def run_interval(
        self, trace_end: float, at: float, arrive: Callable[[float], None]
    ) -> None:
        """Start the work due before ``trace_end`` at wall time ``at``."""


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
        #: Trace time the replay ends at (set by :meth:`start`).
        self.duration = 0.0
        #: True once every interval up to :attr:`duration` has completed.
        self.finished = False
        #: Called when :attr:`finished` is set (see :meth:`start`).
        self._on_finish: Optional[Callable[[], None]] = None
        #: Trace time at the end of the current interval.
        self._end = 0.0
        #: Busy participants not yet arrived, plus one while calling them.
        self._waiting = 0
        #: Latest arrival instant of the current interval.
        self._deadline = 0.0

    def register(self, participant: Participant) -> None:
        """Add a pseudo-client or modifier participant."""
        self._participants.append(participant)

    def close(self) -> None:
        """Forget every participant once the simulator has stopped.

        A called participant holds :meth:`_arrive`, so the participant
        list is a back-reference; dropping it lets a finished replay be
        freed by reference counting.
        """
        self._participants.clear()

    def start(
        self, duration: float, on_finish: Optional[Callable[[], None]] = None
    ) -> None:
        """Replay ``duration`` seconds of trace time, starting now.

        The first busy interval's participants are called before this
        returns; the simulator runs the rest.  ``on_finish()``, if given,
        is called at the instant :attr:`finished` is set.
        """
        if not self._participants:
            raise ValueError("no participants registered")
        self.duration = duration
        self._on_finish = on_finish
        self._next_interval(self.sim.now)

    def _next_interval(self, at: float) -> None:
        """Start the next busy interval at wall time ``at``.

        Loops while every participant of an interval arrives before it is
        called back, and schedules :meth:`_finish` once no interval is left.
        """
        participants = self._participants
        arrive = self._arrive
        interval = self.interval
        duration = self.duration
        while True:
            # A loop rather than min(), which costs a generator per call.
            due = _INF
            for participant in participants:
                if participant.next_due < due:
                    due = participant.next_due
            # Jump over the intervals in which nothing is due, adding one
            # interval at a time: trace_time then takes exactly the values
            # of a loop that called everyone in every interval.
            while True:
                start = self.trace_time
                if not start < duration:
                    self.sim.call_at(at, self._finish)
                    return
                end = start + interval
                if end > duration:
                    end = duration
                if not end > start:
                    # Float underflow: start + interval == start.  Advancing
                    # would loop forever on zero-width intervals.
                    raise CoordinatorError(
                        f"interval {interval!r} is too small to advance "
                        f"trace time from {start!r}", start, end,
                    )
                if due < end:
                    break
                self.trace_time = end
                self.intervals_completed += 1
            self._end = end
            self._deadline = at
            # Hold one count while calling, and count each participant
            # before its call: one may arrive before it returns.
            self._waiting = 1
            for participant in participants:
                if participant.next_due < end:
                    self._waiting += 1
                    participant.run_interval(end, at, arrive)
            self._waiting -= 1
            if self._waiting:
                return
            self._complete()
            at = self._deadline

    def _arrive(self, when: float) -> None:
        """One busy participant's work ends at wall time ``when``."""
        if when > self._deadline:
            self._deadline = when
        self._waiting -= 1
        if not self._waiting:
            self._complete()
            self._next_interval(self._deadline)

    def _complete(self) -> None:
        self.trace_time = self._end
        self.intervals_completed += 1

    def _finish(self) -> None:
        self.finished = True
        if self._on_finish is not None:
            self._on_finish()
