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
Replay traffic keeps the heap shallow (a few dozen entries), so each push
and pop costs a handful of comparisons.  An entry is also the handle that
:meth:`Simulator.cancel` takes.

Processing an entry sets its ``fn`` to ``None``, the same mark a
cancelled entry carries, so cancelling a handle that already fired does
nothing.  An attached :class:`~repro.sim.tracing.EventTracer` sees every
processed entry, so tracing a run changes nothing about how it is
scheduled.

Cancelled entries are discarded lazily when they surface, and the queue is
compacted outright once cancelled entries outnumber live ones (mirroring
the cache heap's ``note_expiry_update`` compaction), so long-lived runs
with many abandoned reply timers keep a bounded queue.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional

__all__ = ["Simulator", "StopSimulation"]

_INF = float("inf")


class _QueueEmpty(IndexError):
    """Internal: the event queue is exhausted (still an IndexError for
    callers of :meth:`Simulator.step`, but distinguishable from an
    IndexError raised by user callback code)."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Simulator.run` early."""


#: Compact the queue once this many cancelled entries accumulate *and*
#: they outnumber the live entries (see Simulator._note_cancel).
_COMPACT_MIN_CANCELLED = 64


class Simulator:
    """The event loop.

    Scheduled entries wait in one binary heap and are processed in
    (time, insertion) order.

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
        self._now = float(start_time)
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
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

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
        entry = [self._now + delay, self._seq, fn, args]
        heappush(self._queue, entry)
        return entry

    def call_at(self, when: float, fn: Callable[..., None], *args) -> list:
        """Schedule ``fn(*args)`` at the absolute time ``when``.

        The same entry and queue slot as :meth:`call_later`, for a caller
        that already holds the instant: no subtraction and re-addition
        that could move it by a rounding step.  ``when`` must be finite
        and not in the past.
        """
        if not self._now <= when < _INF:
            raise ValueError(
                f"callback time must be finite and >= now ({self._now!r}), "
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
            self._note_cancel()

    # -- queue internals ---------------------------------------------------

    def _peek_live(self) -> Optional[list]:
        """Next live entry (discarding cancelled heads), or ``None``."""
        queue = self._queue
        while queue and queue[0][2] is None:
            heappop(queue)
            self._cancelled_queued -= 1
        return queue[0] if queue else None

    def _note_cancel(self) -> None:
        """Bookkeeping for :meth:`cancel`: maybe compact.

        Threshold-based compaction (mirroring the cache heap's
        ``note_expiry_update`` compaction): once cancelled entries pass a
        floor *and* outnumber live ones, rebuild the queue without them so
        abandoned reply timers cannot grow it unboundedly.
        """
        self._cancelled_queued += 1
        if (
            self._cancelled_queued > _COMPACT_MIN_CANCELLED
            and self._cancelled_queued * 2 > len(self._queue)
        ):
            self._compact()

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
        self._now = when
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
        if until < self._now:
            raise ValueError(f"until={until!r} is in the past (now={self._now!r})")
        try:
            while True:
                entry = self._peek_live()
                if entry is None or entry[0] > until:
                    break
                self.step()
        except StopSimulation:
            return
        self._now = max(self._now, until)

    def stop(self) -> None:
        """Stop :meth:`run` from inside a callback."""
        raise StopSimulation()
