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

The coordinator is a chain of plain callbacks, not a process.  Each
participant reports the wall instant its interval's work ends through
``arrive(t)``, often before that instant comes (a pseudo-client knows
its last request's end plus think time as soon as the request ends).
Once every busy participant has arrived, one timer at the latest of
those instants starts the next interval.  Intervals with no busy
participant cost no event at all.
"""

from __future__ import annotations

from typing import Callable, List

from ..sim import Simulator

__all__ = ["TimeCoordinator", "CoordinatorError"]


class CoordinatorError(RuntimeError):
    """The replay cannot advance; carries the interval bounds."""

    def __init__(self, message: str, trace_start: float, trace_end: float) -> None:
        super().__init__(message)
        self.trace_start = trace_start
        self.trace_end = trace_end


#: A participant: called as ``participant(trace_start, trace_end, arrive)``
#: for each interval.  It starts that interval's work and returns True,
#: then calls ``arrive(t)`` exactly once, possibly before returning, with
#: the wall instant ``t >= now`` its work ends.  It returns False when it
#: has nothing due in the interval and then never calls ``arrive``.
Participant = Callable[[float, float, Callable[[float], None]], bool]


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
        #: True once every interval up to :attr:`duration` has completed
        #: (a plain attribute: the replay loop reads it before each event).
        self.finished = False
        #: Trace time at the end of the current interval.
        self._end = 0.0
        #: Busy participants not yet arrived, plus one while calling them.
        self._waiting = 0
        #: Latest arrival instant of the current interval.
        self._deadline = 0.0

    def register(self, participant: Participant) -> None:
        """Add a pseudo-client or modifier participant."""
        self._participants.append(participant)

    def start(self, duration: float) -> None:
        """Replay ``duration`` seconds of trace time, starting now.

        The first interval's participants are called before this returns;
        the simulator runs the rest.
        """
        if not self._participants:
            raise ValueError("no participants registered")
        self.duration = duration
        self._next_interval()

    def _next_interval(self) -> None:
        """Start intervals until one has a busy participant or none is left."""
        sim = self.sim
        arrive = self._arrive
        while self.trace_time < self.duration:
            start = self.trace_time
            end = min(start + self.interval, self.duration)
            if not end > start:
                # Float underflow: start + interval == start.  Advancing
                # would loop forever on zero-width intervals.
                raise CoordinatorError(
                    f"interval {self.interval!r} is too small to advance "
                    f"trace time from {start!r}", start, end,
                )
            self._end = end
            self._deadline = sim.now
            # Hold one count while calling, and count each participant
            # before its call: one may arrive before it returns.
            self._waiting = 1
            busy = False
            for participant in self._participants:
                self._waiting += 1
                if participant(start, end, arrive):
                    busy = True
                else:
                    self._waiting -= 1
            if busy:
                # Even when every arrival came inline, the interval ends
                # at its deadline, in an event of its own.
                self._arrive(self._deadline)
                return
            self._complete()
        self.finished = True

    def _arrive(self, when: float) -> None:
        """One busy participant's work ends at wall time ``when``."""
        if when > self._deadline:
            self._deadline = when
        self._waiting -= 1
        if not self._waiting:
            self.sim.call_at(self._deadline, self._end_interval)

    def _end_interval(self) -> None:
        self._complete()
        self._next_interval()

    def _complete(self) -> None:
        self.trace_time = self._end
        self.intervals_completed += 1
