"""A shared resource for simulation callbacks.

:class:`Resource` is one unit (e.g. a server CPU, a disk arm) with FIFO
queueing.  The cost models use it to serialise work and to measure
utilisation.  :meth:`Resource.use` holds the unit for a fixed time and
then calls on; :meth:`Resource.acquire` claims it for an open-ended hold
that :meth:`Resource.release` ends.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque

from .core import Simulator

__all__ = ["Claim", "Resource"]


class Claim:
    """A callback's claim on a :class:`Resource` (see :meth:`Resource.acquire`)."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., None], args: tuple):
        self.fn = fn
        self.args = args


#: The holder of a unit that :meth:`Resource.use` took while it was free.
_USE = object()


class Resource:
    """One unit of a resource with FIFO queueing.

    Usage::

        resource.use(work, then, arg)  # then(arg) once work seconds pass

        def granted(claim):
            ...  # later: resource.release(claim)

        resource.acquire(granted)

    A busy unit queues claims of both kinds in one FIFO.  A release hands
    the unit to the oldest claim at once, and its callback runs from a
    zero-delay queue entry, after the releasing code has finished.

    Utilisation accounting: the resource records total busy time, which
    :class:`repro.metrics.iostat.IostatSampler` turns into an iostat-style
    utilisation percentage.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: The claim (or ``_USE``) holding the unit; ``None`` when free.
        self._holder: Any = None
        self._queue: Deque[Claim] = deque()
        self._busy_time = 0.0
        self._last_change = sim.now

    # -- accounting ---------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of units currently in use (0 or 1)."""
        return 0 if self._holder is None else 1

    @property
    def queue_length(self) -> int:
        """Number of claims waiting for the unit."""
        return len(self._queue)

    def busy_time(self) -> float:
        """Cumulative seconds of use up to the current instant."""
        if self._holder is None:
            return self._busy_time
        return self._busy_time + (self.sim.now - self._last_change)

    # -- protocol -----------------------------------------------------------

    def use(self, seconds: float, then: Callable[..., None], *args) -> None:
        """Hold the unit for ``seconds``, release it, then call ``then(*args)``.

        A free unit is taken now; a busy one queues the claim.  Busy time
        is accounted from the instant the unit is taken or granted.
        """
        if self._holder is None:
            self._holder = _USE
            self._last_change = self.sim.now
            self.sim.call_later(seconds, self._end_use, then, args)
        else:
            self._queue.append(Claim(self._start_use, (seconds, then, args)))

    def _start_use(self, claim: Claim, seconds: float, then, args: tuple) -> None:
        self.sim.call_later(seconds, self._end_use, then, args)

    def _end_use(self, then: Callable[..., None], args: tuple) -> None:
        self._hand_over()
        then(*args)

    def acquire(self, fn: Callable[..., None], *args) -> Claim:
        """Claim the unit for ``fn(claim, *args)``; release it with :meth:`release`.

        A free unit is granted now and ``fn`` runs before this returns.
        Otherwise the claim waits in the FIFO queue.
        """
        claim = Claim(fn, args)
        if self._holder is None:
            self._holder = claim
            self._last_change = self.sim.now
            fn(claim, *args)
        else:
            self._queue.append(claim)
        return claim

    def release(self, claim: Claim) -> None:
        """Return the unit (or withdraw an un-granted claim)."""
        if claim is self._holder:
            self._hand_over()
        else:
            try:
                self._queue.remove(claim)
            except ValueError:
                pass  # releasing twice is a no-op

    def _hand_over(self) -> None:
        """Free the unit, granting it to the oldest queued claim if any."""
        now = self.sim.now
        self._busy_time += now - self._last_change
        self._last_change = now
        if self._queue:
            claim = self._queue.popleft()
            self._holder = claim
            self.sim.call_later(0.0, claim.fn, claim, *claim.args)
        else:
            self._holder = None

