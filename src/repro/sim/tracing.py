"""Optional simulation observability.

Attaching an :class:`EventTracer` to a :class:`~repro.sim.core.Simulator`
records what the event loop processes — event counts by type, processing
rate over simulated time, and (optionally) a bounded tail of recent
events for post-mortem debugging of stuck or runaway models.

With ``owners=True`` the tracer also counts each event under the code
that owns it (:attr:`EventTracer.owners`): a ``Callback`` belongs to the
qualified name of its function, any other event to the generator of the
process it resumes.  A process that ends with no process waiting owns
its own end; any other event belongs to its first callback.

Tracing is strictly opt-in and adds a single attribute check to the hot
loop when disabled.  It never changes how a run is scheduled: pooled
timers stay pooled while traced, so the per-kind counts show them as
``Callback`` (``Simulator.call_later``) and ``_Sleep``
(``Simulator.sleep``) entries rather than ``Timeout`` events.

Example::

    sim = Simulator()
    tracer = EventTracer(sim, keep_last=50)
    ... run ...
    print(tracer.summary())
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, List, Optional, Tuple

from .core import Callback, Event, Simulator
from .process import Process

__all__ = ["EventTracer"]


class EventTracer:
    """Counts (and optionally records) every processed event.

    Args:
        sim: the simulator to attach to (one tracer per simulator).
        keep_last: size of the recent-event ring buffer; 0 disables
            recording and keeps only counters.
        owners: also count events per owning function or generator in
            :attr:`owners` (off by default; the counts add up to
            :attr:`total`).
    """

    def __init__(
        self, sim: Simulator, keep_last: int = 0, owners: bool = False
    ) -> None:
        if getattr(sim, "_tracer", None) is not None:
            raise ValueError("simulator already has a tracer")
        self.sim = sim
        self.counts: Counter = Counter()
        self.total = 0
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None
        self._ring: Optional[Deque[Tuple[float, str]]] = (
            deque(maxlen=keep_last) if keep_last > 0 else None
        )
        #: Events per owner's qualified name, or ``None`` when not asked for.
        self.owners: Optional[Counter] = Counter() if owners else None
        sim._tracer = self

    # Called by Simulator.step for every processed event.
    def observe(self, now: float, event: Event) -> None:
        kind = type(event).__name__
        self.counts[kind] += 1
        self.total += 1
        if self.first_time is None:
            self.first_time = now
        self.last_time = now
        if self._ring is not None:
            self._ring.append((now, kind))
        if self.owners is not None:
            self.owners[_owner(event)] += 1

    def detach(self) -> None:
        """Stop tracing."""
        if getattr(self.sim, "_tracer", None) is self:
            self.sim._tracer = None

    @property
    def recent(self) -> List[Tuple[float, str]]:
        """The tail of processed events (empty when recording disabled)."""
        return list(self._ring) if self._ring is not None else []

    def events_per_sim_second(self) -> float:
        """Processing density over the observed simulated span."""
        if self.first_time is None or self.last_time == self.first_time:
            return 0.0
        return self.total / (self.last_time - self.first_time)

    def publish(self, registry, **labels) -> None:
        """Publish per-event-type counts into a metrics registry.

        Emits one ``sim_events`` counter per processed event type plus a
        ``sim_events_per_sim_second`` gauge; ``labels`` are attached to
        every series.  This is how ``Observation(deep=True)`` folds the
        kernel's event stream into the same registry the replay metrics
        live in.
        """
        for kind, count in sorted(self.counts.items()):
            registry.counter("sim_events", kind=kind, **labels).inc(count)
        registry.gauge("sim_events_per_sim_second", **labels).set(
            self.events_per_sim_second()
        )

    def summary(self) -> str:
        """Human-readable one-screen digest."""
        lines = [f"{self.total} events over "
                 f"[{self.first_time}, {self.last_time}] sim-seconds"]
        for kind, count in self.counts.most_common():
            lines.append(f"  {kind:16s} {count}")
        return "\n".join(lines)


def _owner(event) -> str:
    """Qualified name of the code an event runs (see :class:`EventTracer`)."""
    if type(event) is Callback:
        return _qualname(event.fn)
    for callback in event.callbacks:
        process = getattr(callback, "__self__", None)
        if type(process) is Process:
            return _qualname(process._generator)
    if type(event) is Process:
        return _qualname(event._generator)
    if event.callbacks:
        return _qualname(event.callbacks[0])
    return type(event).__name__


def _qualname(obj) -> str:
    return getattr(obj, "__qualname__", None) or type(obj).__name__
