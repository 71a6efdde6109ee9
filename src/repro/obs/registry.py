"""Named, labelled metric series behind one registry.

The replay stack already measures everything the paper tabulates, but it
does so in four unrelated shapes: :class:`repro.metrics.ReplayCounters`
(request outcomes), :class:`repro.metrics.LatencyStats` (latency
reservoirs), :class:`repro.metrics.IostatSampler` (server load) and
:class:`repro.net.NetworkStats` (wire accounting).  A
:class:`MetricsRegistry` unifies them: every quantity becomes a named
series with string labels (``protocol=...``, ``site=...``, ``phase=...``)
and one of three handle types:

* :class:`Counter` — monotonically increasing count (``inc``);
* :class:`Gauge` — last-write-wins value (``set``);
* :class:`Timer` — a :class:`~repro.metrics.LatencyStats` distribution
  (``observe``).

Handles are cheap plain objects fetched with
``registry.counter("requests", protocol="ttl", site="proxy-0")``;
fetching the same (name, labels) pair twice returns the same handle, so
producers in different layers accumulate into one series.

An unobserved replay never calls a registry: when no
:class:`repro.obs.Observation` is attached, no registry call site runs
at all (see :mod:`repro.obs.observe`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..metrics import LatencyStats

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "MetricsRegistry",
]

#: Canonical key for one series: name plus sorted ``(label, value)`` pairs.
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _series_key(name: str, labels: Dict[str, Any]) -> SeriesKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count for one (name, labels) series."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the series."""
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}, {self.labels}, value={self.value})"


class Gauge:
    """A last-write-wins value for one (name, labels) series."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value of the series."""
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}, {self.labels}, value={self.value})"


class Timer:
    """A latency/duration distribution for one (name, labels) series.

    Wraps a :class:`~repro.metrics.LatencyStats`, so mean/min/max and
    reservoir percentiles come along for free.
    """

    __slots__ = ("name", "labels", "stats")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.stats = LatencyStats()

    def observe(self, seconds: float) -> None:
        """Record one duration sample, in seconds."""
        self.stats.record(seconds)

    def __repr__(self) -> str:
        return f"Timer({self.name}, {self.labels}, {self.stats!r})"


class MetricsRegistry:
    """Holds every metric series of one observed run.

    The registry is deliberately not thread- or process-aware: one replay
    runs in one process, and parallel sweeps each build their own
    registry (see :mod:`repro.replay.parallel` — an
    :class:`~repro.obs.Observation` is not picklable and therefore not
    shipped to sweep workers).
    """

    def __init__(self) -> None:
        self._counters: Dict[SeriesKey, Counter] = {}
        self._gauges: Dict[SeriesKey, Gauge] = {}
        self._timers: Dict[SeriesKey, Timer] = {}

    # -- handle access ------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get (or create) the counter for ``(name, labels)``."""
        key = _series_key(name, labels)
        handle = self._counters.get(key)
        if handle is None:
            handle = self._counters[key] = Counter(name, dict(key[1]))
        return handle

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get (or create) the gauge for ``(name, labels)``."""
        key = _series_key(name, labels)
        handle = self._gauges.get(key)
        if handle is None:
            handle = self._gauges[key] = Gauge(name, dict(key[1]))
        return handle

    def timer(self, name: str, **labels: Any) -> Timer:
        """Get (or create) the timer for ``(name, labels)``."""
        key = _series_key(name, labels)
        handle = self._timers.get(key)
        if handle is None:
            handle = self._timers[key] = Timer(name, dict(key[1]))
        return handle

    # -- queries ------------------------------------------------------------

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """The current value of a counter or gauge series, else ``None``."""
        key = _series_key(name, labels)
        if key in self._counters:
            return self._counters[key].value
        if key in self._gauges:
            return self._gauges[key].value
        return None

    def total(self, name: str, **labels: Any) -> float:
        """Sum of every counter series named ``name`` matching ``labels``.

        Labels given act as a filter; series carrying extra labels still
        match.  ``registry.total("requests", protocol="ttl")`` sums the
        per-site, per-phase request counters of one protocol.
        """
        want = {k: str(v) for k, v in labels.items()}
        out = 0.0
        for (series_name, series_labels), handle in self._counters.items():
            if series_name != name:
                continue
            have = dict(series_labels)
            if all(have.get(k) == v for k, v in want.items()):
                out += handle.value
        return out

    def series(self) -> Iterator[Tuple[str, str, Dict[str, str], Any]]:
        """Iterate ``(kind, name, labels, handle)`` over every series."""
        for key, handle in sorted(self._counters.items()):
            yield "counter", key[0], dict(key[1]), handle
        for key, handle in sorted(self._gauges.items()):
            yield "gauge", key[0], dict(key[1]), handle
        for key, handle in sorted(self._timers.items()):
            yield "timer", key[0], dict(key[1]), handle

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._timers)

    def to_dict(self) -> Dict[str, List[Dict[str, Any]]]:
        """JSON-compatible snapshot of every series."""
        counters = [
            {"name": key[0], "labels": dict(key[1]), "value": handle.value}
            for key, handle in sorted(self._counters.items())
        ]
        gauges = [
            {"name": key[0], "labels": dict(key[1]), "value": handle.value}
            for key, handle in sorted(self._gauges.items())
        ]
        timers = [
            {
                "name": key[0],
                "labels": dict(key[1]),
                **handle.stats.summary(),
            }
            for key, handle in sorted(self._timers.items())
        ]
        return {"counters": counters, "gauges": gauges, "timers": timers}

    def render(self) -> str:
        """Human-readable dump, one series per line, sorted by name."""
        lines: List[str] = []
        for kind, name, labels, handle in self.series():
            label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            if kind == "timer":
                stats = handle.stats
                value = (
                    f"n={stats.count} mean={stats.mean:.4f} "
                    f"min={stats.min:.4f} max={stats.max:.4f}"
                )
            else:
                value = f"{handle.value:g}"
            lines.append(f"{name}{{{label_text}}} {value}")
        return "\n".join(lines)
