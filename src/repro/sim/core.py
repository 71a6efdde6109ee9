"""Discrete-event simulation kernel: the simulator loop.

This module provides the scheduler used by every other subsystem in the
reproduction.  Work is scheduled as plain callbacks:
:meth:`Simulator.call_later` (relative delay) and :meth:`Simulator.call_at`
(absolute time) queue ``fn(*args)``, and a callback continues a chain by
scheduling the next one.  It has no third-party runtime dependencies.

Determinism: entries scheduled for the same simulated time are processed
in insertion order, so a run is exactly reproducible given the same seed
and the same sequence of API calls.

The queue is one binary heap of ``[time, seq, fn, args]`` lists, and each
entry is its own callback: processing it calls ``fn(*args)``.  The
``(time, seq)`` prefix is unique, so list comparison never reaches ``fn``.
A replay keeps only a handful of live entries queued, so each push and
pop costs a few comparisons.  An entry is also the handle that
:meth:`Simulator.cancel` takes.

Processing an entry sets its ``fn`` to ``None``, the same mark a
cancelled entry carries, so cancelling a handle that already fired does
nothing.  An attached :class:`~repro.sim.tracing.EventTracer` sees every
processed entry, so tracing a run changes nothing about how it is
scheduled.

Cancelled entries are discarded when they surface, and the queue is
compacted as soon as cancelled entries outnumber live ones.  Every proxy
fill or validation arms a reply timeout that its reply cancels
milliseconds later, so without compaction these dead timers would
outnumber the live entries about ten to one; with it the queue holds at
most twice its live entries, at an amortised O(1) cost per cancel.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional

__all__ = ["Simulator"]

_INF = float("inf")


class _QueueEmpty(IndexError):
    """Internal: the event queue is exhausted (still an IndexError for
    callers of :meth:`Simulator.step`, but distinguishable from an
    IndexError raised by user callback code)."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Simulator.run` early."""


class Simulator:
    """The event loop.

    Scheduled entries wait in one binary heap and are processed in
    (time, insertion) order.  :attr:`now` is the current simulated time
    in seconds, a plain attribute that only the simulator sets (at
    construction, as each entry is processed, and when ``run(until)``
    returns); callers read it and never assign it.

    Typical use::

        sim = Simulator()

        def done():
            print("done at", sim.now)

        sim.call_later(5.0, done)
        sim.run()

    Args:
        start_time: initial simulated time.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        start_time = float(start_time)
        if not -_INF < start_time < _INF:
            raise ValueError(f"start_time must be finite, got {start_time!r}")
        self.now = start_time
        self._seq = 0
        #: Optional EventTracer (see repro.sim.tracing).
        self._tracer = None
        #: Heap of [time, seq, fn, args] entries, cancelled ones (``fn``
        #: is None) included.
        self._queue: List[list] = []
        #: Cancelled entries still occupying queue slots.
        self._cancelled_queued = 0

    # -- inspection -------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Entries currently occupying queue slots (cancelled included)."""
        return len(self._queue)

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``float('inf')``."""
        entry = self._peek_live()
        return entry[0] if entry is not None else _INF

    # -- scheduling --------------------------------------------------------

    def call_later(self, delay: float, fn: Callable[..., None], *args) -> list:
        """Schedule ``fn(*args)`` after ``delay`` seconds.

        The queue entry itself runs ``fn``.  Returns the entry as a handle
        for :meth:`cancel`.
        """
        if not 0.0 <= delay < _INF:
            raise ValueError(f"callback delay must be finite and >= 0, got {delay!r}")
        self._seq += 1
        entry = [self.now + delay, self._seq, fn, args]
        heappush(self._queue, entry)
        return entry

    def call_at(self, when: float, fn: Callable[..., None], *args) -> list:
        """Schedule ``fn(*args)`` at the absolute time ``when``.

        The same entry and queue slot as :meth:`call_later`, for a caller
        that already holds the instant: no subtraction and re-addition
        that could move it by a rounding step.  ``when`` must be finite
        and not in the past.
        """
        if not self.now <= when < _INF:
            raise ValueError(
                f"callback time must be finite and >= now ({self.now!r}), "
                f"got {when!r}"
            )
        self._seq += 1
        entry = [when, self._seq, fn, args]
        heappush(self._queue, entry)
        return entry

    def cancel(self, handle: list) -> None:
        """Make a scheduled entry inert (a :meth:`call_later` handle).

        A cancelled entry never runs and does not advance the clock when
        its queue slot drains.  Cancelling an entry that has already run
        or been cancelled does nothing.
        """
        if handle[2] is not None:
            handle[2] = None
            handle[3] = ()
            # Compact once cancelled entries outnumber live ones: the
            # queue then holds at most twice its live entries, and each
            # compaction is paid for by the cancels since the last.
            self._cancelled_queued += 1
            if self._cancelled_queued * 2 > len(self._queue):
                self._compact()

    # -- queue internals ---------------------------------------------------

    def _peek_live(self) -> Optional[list]:
        """Next live entry (discarding cancelled heads), or ``None``."""
        queue = self._queue
        while queue and queue[0][2] is None:
            heappop(queue)
            self._cancelled_queued -= 1
        return queue[0] if queue else None

    def _compact(self) -> None:
        """Rebuild the queue with cancelled entries dropped."""
        # Entries keep their (time, seq) keys, so the processing order is
        # unchanged.
        self._queue = [entry for entry in self._queue if entry[2] is not None]
        heapify(self._queue)
        self._cancelled_queued = 0

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Process the single next entry.

        Raises :class:`IndexError` if the queue is empty; an exception
        raised by the callback propagates.
        """
        queue = self._queue
        try:
            entry = heappop(queue)
            while entry[2] is None:
                self._cancelled_queued -= 1
                entry = heappop(queue)
        except IndexError:
            raise _QueueEmpty("pop from an empty event queue") from None
        when, _seq, fn, args = entry
        self.now = when
        if self._tracer is not None:
            self._tracer.observe(when, entry)
        entry[2] = None
        fn(*args)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue is exhausted or ``until`` is reached.

        If ``until`` is given, the clock is advanced exactly to ``until``
        even when no event is scheduled at that time.
        """
        if until is None:
            # Tight loop: no peek, step() pops directly.  _QueueEmpty is
            # private to the scheduler, so user-code IndexErrors propagate.
            try:
                step = self.step
                while True:
                    step()
            except _QueueEmpty:
                return
            except StopSimulation:
                return
        if not self.now <= until < _INF:
            raise ValueError(
                f"until must be finite and >= now ({self.now!r}), got {until!r}"
            )
        try:
            while True:
                entry = self._peek_live()
                if entry is None or entry[0] > until:
                    break
                self.step()
        except StopSimulation:
            return
        self.now = max(self.now, until)

    def stop(self) -> None:
        """Stop :meth:`run` from inside a callback."""
        raise StopSimulation()
