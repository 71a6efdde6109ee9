"""Binding observability to one replay run.

An :class:`Observation` carries a :class:`~repro.obs.MetricsRegistry`
and (optionally) a :class:`~repro.obs.SpanSink` into
:func:`repro.replay.run_experiment` via
``ExperimentConfig(observation=...)``.  The runner calls the hooks in
this module at well-chosen seams:

* every completed request is folded into per-``(protocol, site, phase)``
  counter/timer series and emitted as a ``request`` span — from the
  ``counters.record(outcome)`` call every request ends in, so observing
  leaves the request route and its results untouched;
* every accelerator INVALIDATE fan-out becomes an ``invalidation`` span
  plus a fan-out timer (via :attr:`repro.server.ServerSite.fanout_listener`);
* at the end of the run, the wire accounting, per-proxy counters, server
  load and the scalar result fields are published into the registry, so
  one snapshot (``observation.registry.to_dict()``) holds everything the
  paper's tables print.

Phases: requests are labelled ``warmup`` (first 10% of trace time),
``steady`` (the rest) or ``drain`` (after the coordinator finished, while
in-flight work completes).  The phase is *derived* from the coordinator's
trace clock — attaching an observation schedules no events of its own,
so observed and unobserved runs process identical event sequences.

``deep=True`` additionally attaches a :class:`repro.sim.EventTracer` to
the kernel.  It is told about every processed queue entry, pooled
timers included, and schedules nothing itself, so results are identical
and only the kernel's speed differs.  Use it for post-mortems, not for
routine metrics.
"""

from __future__ import annotations

from typing import Any, Optional

from .registry import MetricsRegistry
from .spans import SpanSink

__all__ = ["Observation", "capture_result"]

#: Fraction of trace time labelled as warm-up.
WARMUP_FRACTION = 0.1


class _RecordingCounters:
    """Wraps one :class:`~repro.metrics.ReplayCounters` for one proxy site.

    ``record`` first feeds the wrapped counters (keeping replay results
    untouched), then folds the outcome into registry series and emits a
    ``request`` span.  Every other attribute is delegated, so the wrapper
    is a drop-in stand-in wherever the raw counters object is used.
    """

    __slots__ = ("_inner", "_obs", "_site")

    def __init__(self, inner: Any, obs: "Observation", site: str) -> None:
        self._inner = inner
        self._obs = obs
        self._site = site

    def record(self, outcome: Any) -> None:
        """Fold one request outcome into the counters and the registry."""
        self._inner.record(outcome)
        self._obs.record_request(outcome, self._site)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class Observation:
    """Observability configuration and state for one replay run.

    Args:
        registry: destination for metric series (default: a fresh
            :class:`~repro.obs.MetricsRegistry`).
        sink: optional :class:`~repro.obs.SpanSink` receiving the
            structured event trace; ``None`` records metrics only.
        deep: also attach a kernel :class:`~repro.sim.EventTracer`
            (counts every processed event; results are unchanged,
            speed is not).
        deep_keep_last: ring-buffer size for the deep tracer's recent
            events.

    One observation observes one run: pass a fresh instance per
    ``run_experiment`` call.  Observations are not picklable and are
    therefore not supported with :class:`repro.replay.ParallelSweepRunner`
    workers — observe serial runs, or aggregate parallel sweeps from
    their checkpointed results instead (``repro report``).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        sink: Optional[SpanSink] = None,
        deep: bool = False,
        deep_keep_last: int = 64,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sink = sink
        self.deep = deep
        self.deep_keep_last = deep_keep_last
        self.tracer = None
        self.protocol = ""
        self.trace_name = ""
        self._coordinator = None
        self._duration = 0.0
        self._bound = False

    # -- wiring (called by run_experiment) ---------------------------------

    def bind(
        self,
        sim: Any,
        protocol: str,
        trace_name: str,
        coordinator: Any,
        duration: float,
    ) -> None:
        """Attach to one run; called once by ``run_experiment``."""
        if self._bound:
            raise ValueError(
                "Observation already bound to a run; use one per experiment"
            )
        self._bound = True
        self.protocol = protocol
        self.trace_name = trace_name
        self._coordinator = coordinator
        self._duration = duration
        if self.deep:
            from ..sim.tracing import EventTracer

            self.tracer = EventTracer(sim, keep_last=self.deep_keep_last)

    def phase(self) -> str:
        """Current replay phase, derived from the coordinator's clock."""
        if self._coordinator is None or self._duration <= 0:
            return "steady"
        trace_time = self._coordinator.trace_time
        if trace_time >= self._duration:
            return "drain"
        if trace_time < WARMUP_FRACTION * self._duration:
            return "warmup"
        return "steady"

    def wrap_counters(self, counters: Any, site: str) -> _RecordingCounters:
        """Wrap the shared replay counters for one proxy site."""
        return _RecordingCounters(counters, self, site)

    # -- recording hooks ----------------------------------------------------

    def record_request(self, outcome: Any, site: str) -> None:
        """Fold one request outcome into series and (maybe) a span."""
        registry = self.registry
        protocol = self.protocol
        phase = self.phase()
        if outcome.failed:
            action = "failed"
        elif outcome.hit:
            action = "hit"
        elif outcome.validated:
            action = "validate"
        else:
            action = "miss"
        registry.counter(
            "requests", protocol=protocol, site=site, phase=phase,
            action=action,
        ).inc()
        if outcome.stale_served:
            registry.counter(
                "stale_serves", protocol=protocol, site=site, phase=phase
            ).inc()
        if outcome.violation:
            registry.counter(
                "violations", protocol=protocol, site=site, phase=phase
            ).inc()
        if not outcome.failed:
            registry.timer(
                "request_latency", protocol=protocol, site=site
            ).observe(outcome.latency)
        if self.sink is not None:
            attrs = {
                "site": site,
                "client": outcome.client_id,
                "protocol": protocol,
                "phase": phase,
                "action": action,
                "status": outcome.status,
                "bytes": outcome.body_bytes,
            }
            if outcome.stale_served:
                attrs["stale"] = True
            if outcome.violation:
                attrs["violation"] = True
            self.sink.emit(
                "request", outcome.url, outcome.started, outcome.finished,
                **attrs,
            )

    def fanout_listener(
        self, url: str, started: float, ended: float, sites: int
    ) -> None:
        """Record one INVALIDATE fan-out (the server's hook target)."""
        phase = self.phase()
        self.registry.counter(
            "invalidation_fanouts", protocol=self.protocol, phase=phase
        ).inc()
        self.registry.timer(
            "invalidation_fanout_time", protocol=self.protocol
        ).observe(ended - started)
        if self.sink is not None:
            self.sink.emit(
                "invalidation", url, started, ended,
                protocol=self.protocol, phase=phase, sites=sites,
            )

    # -- end of run ---------------------------------------------------------

    def finish(
        self,
        sim: Any,
        result: Any,
        network_stats: Any,
        server: Any,
        proxies: Any,
        iostat: Any,
    ) -> None:
        """Publish the end-of-run aggregates into the registry."""
        labels = {"protocol": self.protocol, "trace": self.trace_name}
        network_stats.publish(self.registry, **labels)
        for proxy in proxies:
            proxy.publish_metrics(self.registry, protocol=self.protocol)
        gauges = self.registry
        gauges.gauge("server_cpu_utilization", **labels).set(
            iostat.cpu_utilization()
        )
        gauges.gauge("server_disk_utilization", **labels).set(
            iostat.disk_utilization()
        )
        gauges.gauge("server_disk_reads_per_sec", **labels).set(
            iostat.disk_reads_per_sec()
        )
        gauges.gauge("server_disk_writes_per_sec", **labels).set(
            iostat.disk_writes_per_sec()
        )
        gauges.gauge("sitelist_storage_bytes", **labels).set(
            server.table.storage_bytes()
        )
        gauges.gauge("sitelist_entries", **labels).set(
            server.table.total_entries()
        )
        cluster = getattr(result, "cluster", None)
        if cluster is not None:
            gauges.gauge("cluster_shards", **labels).set(cluster["shards"])
            gauges.gauge("cluster_imbalance_ratio", **labels).set(
                cluster["imbalance_ratio"]
            )
            gauges.gauge("cluster_handoffs", **labels).set(cluster["handoffs"])
            gauges.gauge("cluster_batches_delivered", **labels).set(
                cluster["batches_delivered"]
            )
            for shard_name, row in cluster["per_shard"].items():
                shard_labels = dict(labels, shard=shard_name)
                for metric in (
                    "requests_routed",
                    "invalidations_sent",
                    "batches_sent",
                    "sitelist_entries",
                    "sitelist_evictions",
                ):
                    gauges.gauge(f"shard_{metric}", **shard_labels).set(
                        row[metric]
                    )
        capture_result(self.registry, result)
        if self.tracer is not None:
            self.tracer.publish(self.registry, **labels)
        if self.sink is not None:
            self.sink.emit(
                "run",
                f"{self.trace_name}/{self.protocol}",
                0.0,
                sim.now,
                protocol=self.protocol,
                trace=self.trace_name,
                requests=result.total_requests,
                messages=result.total_messages,
            )

    def close(self) -> None:
        """Detach the deep tracer (if any) and close the span sink."""
        if self.tracer is not None:
            self.tracer.detach()
        if self.sink is not None:
            self.sink.close()


#: Scalar result fields published as gauges by :func:`capture_result`.
_RESULT_GAUGES = (
    "total_requests",
    "files_modified",
    "gets",
    "ims",
    "replies_200",
    "replies_304",
    "invalidations",
    "total_messages",
    "message_bytes",
    "invalidations_sent",
    "origin_requests",
    "wall_time",
)


def capture_result(registry: MetricsRegistry, result: Any) -> None:
    """Fold an :class:`~repro.replay.ExperimentResult` into gauge series.

    Lets checkpointed or archived results be loaded into the same
    registry shape live runs produce — the unification ``repro report``
    builds on.
    """
    labels = {"protocol": result.protocol, "trace": result.trace_name}
    for name in _RESULT_GAUGES:
        registry.gauge(f"result_{name}", **labels).set(getattr(result, name))
    registry.gauge("result_hits", **labels).set(result.hits)
    registry.gauge("result_stale_serves", **labels).set(result.stale_serves)
    registry.gauge("result_violations", **labels).set(result.violations)
    registry.gauge("result_avg_latency", **labels).set(result.avg_latency)
