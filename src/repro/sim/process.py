"""Generator-based processes and condition events for the sim kernel.

A *process* wraps a Python generator.  The generator yields
:class:`~repro.sim.core.Event` instances; the process is suspended until the
yielded event triggers, at which point the generator is resumed with the
event's value (or the event's exception is thrown into it).

Processes are themselves events, so one process can wait for another simply
by yielding it (a *join*).
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from .core import Event, SimulationError, Simulator, URGENT

__all__ = ["Process", "AllOf", "AnyOf", "ConditionValue"]


class Process(Event):
    """A running generator; triggers when the generator terminates.

    The process event succeeds with the generator's return value, or fails
    with the exception that escaped the generator.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, sim: Simulator, generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        #: The event this process is currently waiting on.
        self._target: Optional[Event] = None
        # Kick the process off via an initial event so that construction
        # order does not matter within a time step.
        start = Event(sim)
        start._ok = True
        start._value = None
        start.callbacks.append(self._resume)
        sim._enqueue(start, URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not terminated."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on (if any)."""
        return self._target

    # -- engine ------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Resume the generator with ``event``'s outcome."""
        self._target = None

        self.sim._active_process = self
        try:
            while True:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)

                if not isinstance(next_event, Event):
                    raise SimulationError(
                        f"process yielded a non-event: {next_event!r}"
                    )
                if next_event.callbacks is None:
                    # Already processed: consume its value immediately.
                    event = next_event
                    continue
                next_event.callbacks.append(self._resume)
                self._target = next_event
                return
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            self.sim._enqueue(self, URGENT)
        except BaseException as exc:  # noqa: BLE001 - propagated via event
            self._ok = False
            self._value = exc
            self.sim._enqueue(self, URGENT)
        finally:
            self.sim._active_process = None

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", "process")
        return f"<Process {name}>"


class ConditionValue:
    """Ordered mapping of child events to values for condition events."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(repr(event))
        return event._value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def todict(self) -> dict:
        """Return a plain ``{event: value}`` dict."""
        return {event: event._value for event in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class _Condition(Event):
    """Base for AllOf/AnyOf: waits on children, applies an evaluator."""

    __slots__ = ("_events", "_count")

    def __init__(self, sim: Simulator, events: List[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("condition spans multiple simulators")
        if not self._events:
            self.succeed(ConditionValue())
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _evaluate(self, count: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            # The condition has already resolved (e.g. another child
            # failed it): absorb this child's failure so it does not
            # escape the simulator loop with nobody left to handle it.
            if not event._ok:
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._count):
            value = ConditionValue()
            for child in self._events:
                # A child counts as "done" only once processed; Timeouts are
                # value-triggered at construction, so `triggered` would be
                # wrong here.
                if child.processed and child._ok:
                    value.events.append(child)
            self.succeed(value)


class AllOf(_Condition):
    """Triggers once every child event has succeeded."""

    __slots__ = ()

    def _evaluate(self, count: int) -> bool:
        return count == len(self._events)


class AnyOf(_Condition):
    """Triggers as soon as any child event succeeds (or fails)."""

    __slots__ = ()

    def _evaluate(self, count: int) -> bool:
        return count >= 1
