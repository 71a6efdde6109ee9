"""Discrete-event simulation kernel: events and the simulator loop.

This module provides the event machinery used by every other subsystem in
the reproduction.  It is deliberately simpy-like (generator-based processes
yield events and are resumed when those events trigger) but implemented from
scratch so the repository has no third-party runtime dependencies.

Determinism: events scheduled for the same simulated time are processed in
(priority, insertion-order) order, so a run is exactly reproducible given
the same seed and the same sequence of API calls.

The queue is one binary heap of ``(time, priority, seq, obj)`` tuples.
The ``(time, priority, seq)`` prefix is unique, so tuple comparison never
reaches ``obj``.  Replay traffic keeps the heap shallow (a few dozen
entries), so each push and pop costs a handful of comparisons.

Allocation avoidance on the hot path:

* :meth:`Simulator.call_later` schedules a plain function through a pooled
  :class:`Callback` entry — no :class:`Event`, no callbacks list, no
  generator resumption.
* :meth:`Simulator.sleep` returns a pooled one-shot timeout for the
  ubiquitous ``yield sim.sleep(delta)`` pattern; the event object is
  recycled as soon as its callbacks have run.

An attached :class:`~repro.sim.tracing.EventTracer` sees both kinds of
pooled entry like any other event (as ``Callback`` and ``_Sleep``), so
tracing a run changes nothing about how it is scheduled.

Cancelled entries are discarded lazily when they surface, and the queue is
compacted outright once cancelled entries outnumber live ones (mirroring
the cache heap's ``note_expiry_update`` compaction), so long-lived runs
with many abandoned reply timers keep a bounded queue.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Callback",
    "Simulator",
    "SimulationError",
    "Interrupt",
    "StopSimulation",
    "URGENT",
    "NORMAL",
]

#: Scheduling priority for interrupt-style events (processed before NORMAL
#: events scheduled for the same simulated time).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

#: Sentinel for "event has not been given a value yet".
_PENDING = object()

_INF = float("inf")


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class _QueueEmpty(IndexError):
    """Internal: the event queue is exhausted (still an IndexError for
    callers of :meth:`Simulator.step`, but distinguishable from an
    IndexError raised by user callback code)."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Simulator.run` early."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupting cause is available as :attr:`cause`.
    """

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt` (may be ``None``)."""
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence that processes can wait for.

    An event goes through three states: *pending* (created, not triggered),
    *triggered* (given a value or an exception, scheduled on the event
    queue) and *processed* (popped from the queue; its callbacks have run).
    Processes wait on an event by ``yield``-ing it; they are resumed with
    the event's value, or have the event's exception thrown into them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "_cancelled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callbacks to run when the event is processed.  ``None`` once the
        #: event has been processed (this doubles as the "processed" flag).
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False
        self._cancelled: bool = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``.

        ``priority=URGENT`` processes it before every NORMAL entry
        already queued for the current time: a process woken this way
        resumes where an inline continuation would have run.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(self, priority)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised at the end of the simulation unless some
        waiter handles it (waiting on a failed event *defuses* it).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self, NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = event._ok
        self._value = event._value
        self.sim._enqueue(self, NORMAL)

    def defuse(self) -> None:
        """Mark the event as handled so its failure cannot crash the loop.

        A failed event whose exception no waiter consumes is re-raised
        out of :meth:`Simulator.step`.  Supervisors that learn of a
        failure through another channel (e.g. a condition that already
        failed) call this on the remaining events they were watching so
        late failures do not take down the whole simulation.  Safe to
        call before or after the event triggers.
        """
        self._defused = True

    def cancel(self) -> None:
        """Make a scheduled-but-unprocessed event inert.

        A cancelled event never runs its callbacks and — importantly —
        does not advance the simulation clock when its queue slot drains.
        Used to retire abandoned timers (e.g. a reply timeout after the
        reply arrived) so ``run()`` does not idle the clock forward.
        """
        if self.processed:
            raise SimulationError("cannot cancel a processed event")
        self._cancelled = True
        self.callbacks = None
        self.sim._note_cancel()

    # -- composition ------------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        from .process import AllOf  # local import to avoid a cycle

        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        from .process import AnyOf

        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x}>"


# Imported late by __and__/__or__; re-exported for type checkers.
Condition = Event


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not 0.0 <= delay < _INF:
            raise ValueError(f"timeout delay must be finite and >= 0, got {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._enqueue(self, NORMAL, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class _Sleep(Event):
    """A pooled one-shot timeout (see :meth:`Simulator.sleep`).

    Recycled by the event loop right after its callbacks run, so the
    object must never be stored, composed (``AnyOf``/``AllOf``) or
    cancelled — only yielded immediately by the scheduling process.
    """

    __slots__ = ()


class Callback:
    """A pooled queue entry that runs a plain function — no Event at all.

    This is the zero-allocation fast path for fire-and-forget timers
    (message delivery, cache-hit completion).  The handle supports
    :meth:`cancel` but nothing else; it is recycled after firing, so it
    must not be retained (and in particular not cancelled) once its
    scheduled time has passed.
    """

    __slots__ = ("sim", "fn", "args", "_cancelled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.fn: Optional[Callable[..., None]] = None
        self.args: tuple = ()
        self._cancelled = False

    def cancel(self) -> None:
        """Make the pending callback inert (same contract as Event.cancel)."""
        if not self._cancelled:
            self._cancelled = True
            self.fn = None
            self.args = ()
            self.sim._note_cancel()

    def __repr__(self) -> str:
        return f"<Callback {getattr(self.fn, '__name__', None)}>"


#: Cap on each free list so a one-off burst cannot pin memory forever.
_POOL_LIMIT = 1024

#: Compact the queue once this many cancelled entries accumulate *and*
#: they outnumber the live entries (see Simulator._note_cancel).
_COMPACT_MIN_CANCELLED = 64


class Simulator:
    """The event loop.

    Scheduled entries wait in one binary heap and are processed in
    (time, priority, insertion) order.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(5.0)
            print("done at", sim.now)

        sim.process(worker(sim))
        sim.run()

    Args:
        start_time: initial simulated time.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._seq = 0
        self._active_process = None
        #: Optional EventTracer (see repro.sim.tracing).
        self._tracer = None
        #: Heap of (time, priority, seq, obj) entries, cancelled included.
        self._queue: List[tuple] = []
        #: Cancelled entries still occupying queue slots.
        self._cancelled_queued = 0

        # -- free lists --
        self._cb_pool: List[Callback] = []
        self._sleep_pool: List[_Sleep] = []

    # -- inspection -------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self):
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def queue_depth(self) -> int:
        """Entries currently occupying queue slots (cancelled included)."""
        return len(self._queue)

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``float('inf')``."""
        entry = self._peek_live()
        return entry[0] if entry is not None else _INF

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` triggering ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> Event:
        """Pooled one-shot timeout for ``yield sim.sleep(delta)``.

        Identical queue behaviour to ``sim.timeout(delay)`` (one entry,
        same priority, same insertion order) but the event object comes
        from a free list and is recycled as soon as it is processed.  The
        returned event must be yielded immediately and never stored,
        composed or cancelled.
        """
        if not 0.0 <= delay < _INF:
            raise ValueError(f"sleep delay must be finite and >= 0, got {delay!r}")
        pool = self._sleep_pool
        event = pool.pop() if pool else _Sleep(self)
        event._ok = True
        event._value = None
        self._enqueue(event, NORMAL, delay)
        return event

    def process(self, generator) -> "Process":
        """Start a new generator :class:`Process`."""
        from .process import Process

        return Process(self, generator)

    # -- scheduling --------------------------------------------------------

    def _enqueue(self, event: Event, priority: int, delay: float = 0.0) -> None:
        """Put a triggered event on the queue, ``delay`` seconds from now."""
        self._seq += 1
        heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def call_later(self, delay: float, fn: Callable[..., None], *args) -> Any:
        """Schedule ``fn(*args)`` after ``delay`` seconds — the fast path.

        Uses a pooled :class:`Callback` queue entry: no :class:`Event`
        construction, no callbacks list, no generator resumption.  Returns
        a handle supporting ``cancel()``; the handle is recycled after the
        callback fires and must not be retained past that point.
        """
        if not 0.0 <= delay < _INF:
            raise ValueError(f"callback delay must be finite and >= 0, got {delay!r}")
        pool = self._cb_pool
        if pool:
            cb = pool.pop()
            cb._cancelled = False
        else:
            cb = Callback(self)
        cb.fn = fn
        cb.args = args
        self._seq += 1
        heappush(self._queue, (self._now + delay, NORMAL, self._seq, cb))
        return cb

    # -- queue internals ---------------------------------------------------

    def _peek_live(self) -> Optional[tuple]:
        """Next live entry (discarding cancelled heads), or ``None``."""
        queue = self._queue
        while queue and queue[0][3]._cancelled:
            heappop(queue)
            self._cancelled_queued -= 1
        return queue[0] if queue else None

    def _note_cancel(self) -> None:
        """Bookkeeping hook for Event/Callback.cancel: maybe compact.

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
        # Entries keep their (time, priority, seq) keys, so the processing
        # order is unchanged.
        self._queue = [entry for entry in self._queue if not entry[3]._cancelled]
        heapify(self._queue)
        self._cancelled_queued = 0

    def _recycle_callback(self, cb: Callback) -> None:
        cb.fn = None
        cb.args = ()
        if len(self._cb_pool) < _POOL_LIMIT:
            self._cb_pool.append(cb)

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Process the single next event.

        Raises :class:`IndexError` if the queue is empty and re-raises any
        un-defused event failure.
        """
        queue = self._queue
        try:
            entry = heappop(queue)
            while entry[3]._cancelled:
                self._cancelled_queued -= 1
                entry = heappop(queue)
        except IndexError:
            raise _QueueEmpty("pop from an empty event queue") from None
        self._now = entry[0]
        event = entry[3]

        if type(event) is Callback:
            # Direct-callback fast path: no Event machinery at all.
            if self._tracer is not None:
                self._tracer.observe(self._now, event)
            fn = event.fn
            args = event.args
            self._recycle_callback(event)
            fn(*args)
            return

        if self._tracer is not None:
            self._tracer.observe(self._now, event)

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise SimulationError(f"event failed with non-exception {exc!r}")

        if type(event) is _Sleep and len(self._sleep_pool) < _POOL_LIMIT:
            # The waiter has been resumed; the pooled timer is dead weight.
            event._value = _PENDING
            event._ok = True
            event._defused = False
            event._cancelled = False
            event.callbacks = []
            self._sleep_pool.append(event)

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
        """Stop :meth:`run` from inside a callback or process."""
        raise StopSimulation()
