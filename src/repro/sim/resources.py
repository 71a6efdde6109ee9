"""Shared resources for simulation processes.

Two primitives cover everything the reproduction needs:

* :class:`Resource` — a counted resource (e.g. a server CPU, a disk arm)
  with FIFO queueing.  Used by the cost models to serialise work and to
  measure utilisation.  A unit is claimed with :meth:`Resource.acquire`,
  which runs the claim's callback at once when a unit is free, and
  returned with :meth:`Resource.release`.
* :class:`Store` — an unbounded FIFO mailbox of items.  Used for request
  queues and message inboxes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from .core import Event, Simulator

__all__ = ["Claim", "Resource", "Store"]


class Claim:
    """A callback's claim on a :class:`Resource` (see :meth:`Resource.acquire`)."""

    __slots__ = ("resource", "fn", "args")

    def __init__(self, resource: "Resource", fn: Callable[..., None], args: tuple):
        self.resource = resource
        self.fn = fn
        self.args = args


class Resource:
    """A counted resource with FIFO queueing.

    Usage::

        def granted(claim):
            sim.call_later(work, resource.release, claim)

        resource.acquire(granted)

    Utilisation accounting: the resource records total busy time (summed
    over units in use), which :class:`repro.metrics.iostat.IostatSampler`
    turns into an iostat-style utilisation percentage.
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self._users: List[Claim] = []
        self._queue: Deque[Claim] = deque()
        self._busy_time = 0.0
        self._last_change = sim.now

    # -- accounting ---------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of units currently in use."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of claims waiting for a unit."""
        return len(self._queue)

    def busy_time(self) -> float:
        """Cumulative unit-seconds of use up to the current instant."""
        return self._busy_time + self.count * (self.sim.now - self._last_change)

    # -- protocol -----------------------------------------------------------

    def acquire(self, fn: Callable[..., None], *args) -> Claim:
        """Claim one unit for ``fn(claim, *args)``; release it with :meth:`release`.

        A free unit is granted now and ``fn`` runs before this returns.
        Otherwise the claim waits in a FIFO queue, and a release grants it
        by scheduling ``fn`` as a zero-delay callback.  Busy time is
        accounted from the instant of the grant.
        """
        claim = Claim(self, fn, args)
        users = self._users
        if len(users) < self.capacity:
            # Busy-time accounting, inlined here and in release: both are
            # on the hot path of every server stage.
            now = self.sim._now
            self._busy_time += len(users) * (now - self._last_change)
            self._last_change = now
            users.append(claim)
            fn(claim, *args)
        else:
            self._queue.append(claim)
        return claim

    def release(self, claim: Claim) -> None:
        """Return a unit (or withdraw an un-granted claim)."""
        users = self._users
        if claim in users:
            now = self.sim._now
            self._busy_time += len(users) * (now - self._last_change)
            self._last_change = now
            users.remove(claim)
            # Grant the freed unit to the oldest queued claim; busy time
            # is accounted up to now already.
            queue = self._queue
            while queue and len(users) < self.capacity:
                granted = queue.popleft()
                users.append(granted)
                self.sim.call_later(0.0, granted.fn, granted, *granted.args)
        else:
            try:
                self._queue.remove(claim)
            except ValueError:
                pass  # releasing twice is a no-op


class Store:
    """Unbounded FIFO store of items with blocking ``get``.

    ``put`` never blocks (the reproduction's queues are open-ended, like a
    listen backlog); ``get`` returns an event that triggers with the oldest
    item once one is available.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> None:
        """Add an item, waking the oldest waiting getter if any."""
        # Skip getters that were cancelled (triggered externally).
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """Return an event that triggers with the next available item."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns ``None`` when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def clear(self) -> int:
        """Drop all queued items, returning how many were dropped."""
        dropped = len(self._items)
        self._items.clear()
        return dropped
