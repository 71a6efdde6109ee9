"""Optional simulation observability.

Attaching an :class:`EventTracer` to a :class:`~repro.sim.core.Simulator`
records what the event loop processes: event counts by owner and the
processing rate over simulated time.

Each processed queue entry is a plain function scheduled with
``Simulator.call_later``/``call_at``; the tracer counts it under the
code that owns it (:attr:`EventTracer.owners`): the qualified name of
its function.

Tracing is strictly opt-in and adds a single attribute check to the hot
loop when disabled.  It never changes how a run is scheduled.

Example::

    sim = Simulator()
    tracer = EventTracer(sim)
    ... run ...
    print(tracer.summary())
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .core import Simulator

__all__ = ["EventTracer"]


class EventTracer:
    """Counts every processed event.

    Args:
        sim: the simulator to attach to (one tracer per simulator).
    """

    def __init__(self, sim: Simulator) -> None:
        if getattr(sim, "_tracer", None) is not None:
            raise ValueError("simulator already has a tracer")
        self.sim = sim
        #: Events per owner's qualified name; the counts add up to
        #: :attr:`total`.
        self.owners: Counter = Counter()
        self.total = 0
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None
        sim._tracer = self

    def observe(self, now: float, entry: list) -> None:
        """Count one processed queue entry; :meth:`Simulator.step` calls this."""
        owner = _qualname(entry[2])
        self.owners[owner] += 1
        self.total += 1
        if self.first_time is None:
            self.first_time = now
        self.last_time = now

    def detach(self) -> None:
        """Stop tracing."""
        if getattr(self.sim, "_tracer", None) is self:
            self.sim._tracer = None

    def events_per_sim_second(self) -> float:
        """Processing density over the observed simulated span."""
        if self.first_time is None or self.last_time == self.first_time:
            return 0.0
        return self.total / (self.last_time - self.first_time)

    def publish(self, registry, **labels) -> None:
        """Publish per-owner event counts into a metrics registry.

        Emits one ``sim_events`` counter per owner plus a
        ``sim_events_per_sim_second`` gauge; ``labels`` are attached to
        every series.  This is how ``Observation(deep=True)`` folds the
        kernel's event stream into the same registry the replay metrics
        live in.
        """
        for owner, count in sorted(self.owners.items()):
            registry.counter("sim_events", owner=owner, **labels).inc(count)
        registry.gauge("sim_events_per_sim_second", **labels).set(
            self.events_per_sim_second()
        )

    def summary(self) -> str:
        """Human-readable one-screen digest."""
        lines = [f"{self.total} events over "
                 f"[{self.first_time}, {self.last_time}] sim-seconds"]
        for owner, count in self.owners.most_common():
            lines.append(f"  {count:8d} {owner}")
        return "\n".join(lines)


def _qualname(obj) -> str:
    return getattr(obj, "__qualname__", None) or type(obj).__name__
