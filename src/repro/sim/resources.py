"""Shared resources for simulation processes.

Two primitives cover everything the reproduction needs:

* :class:`Resource` — a counted resource (e.g. a server CPU, a disk arm)
  with FIFO queueing.  Used by the cost models to serialise work and to
  measure utilisation.  A process waits for a unit with
  :meth:`Resource.request`; a callback chain takes one with
  :meth:`Resource.acquire`, which runs the callback at once when a unit
  is free.
* :class:`Store` — an unbounded FIFO mailbox of items.  Used for request
  queues and message inboxes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Union

from .core import Event, Simulator

__all__ = ["Claim", "Resource", "Request", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource`; usable as a context manager."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource
        resource._queue.append(self)
        resource._grant()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an un-granted request (used on interrupt)."""
        self.resource.release(self)


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

        with resource.request() as req:
            yield req
            yield sim.timeout(work)

    or, without a process::

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
        self._users: List[Union[Request, Claim]] = []
        self._queue: Deque[Union[Request, Claim]] = deque()
        self._busy_time = 0.0
        self._last_change = sim.now

    # -- accounting ---------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of units currently in use."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self._queue)

    def busy_time(self) -> float:
        """Cumulative unit-seconds of use up to the current instant."""
        return self._busy_time + self.count * (self.sim.now - self._last_change)

    def _account(self) -> None:
        now = self.sim.now
        self._busy_time += self.count * (now - self._last_change)
        self._last_change = now

    # -- protocol -----------------------------------------------------------

    def request(self) -> Request:
        """Queue a claim for one unit; the returned event triggers on grant."""
        return Request(self)

    def acquire(self, fn: Callable[..., None], *args) -> Claim:
        """Claim one unit for ``fn(claim, *args)``; release it with :meth:`release`.

        A free unit is granted now and ``fn`` runs before this returns.
        Otherwise the claim waits in the same FIFO queue as the
        :class:`Request` events, and its grant calls ``fn`` from the queue
        slot a request's grant would take.  Either way the busy time is
        accounted at the same instant as a :meth:`request` grant.
        """
        claim = Claim(self, fn, args)
        if len(self._users) < self.capacity:
            self._account()
            self._users.append(claim)
            fn(claim, *args)
        else:
            self._queue.append(claim)
        return claim

    def release(self, request: Union[Request, Claim]) -> None:
        """Return a unit (or withdraw an un-granted request or claim)."""
        if request in self._users:
            self._account()
            self._users.remove(request)
            self._grant()
        else:
            try:
                self._queue.remove(request)
            except ValueError:
                pass  # releasing twice is a no-op

    def _grant(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            request = self._queue.popleft()
            self._account()
            self._users.append(request)
            if type(request) is Claim:
                self.sim.call_later(0.0, request.fn, request, *request.args)
            else:
                request.succeed()


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
