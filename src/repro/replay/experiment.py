"""Experiment runner: one protocol x one trace x one lifetime.

This wires the whole testbed together the way Section 5.1 describes:

* one pseudo-server workstation (:class:`repro.server.ServerSite`) holding
  scaled copies of every trace document;
* four pseudo-client workstations, each running a caching proxy and a
  trace-replay driver for its quarter of the real clients;
* a modifier process touching one uniform-random file every N seconds of
  trace time (N from the mean-lifetime arithmetic);
* the lock-step time coordinator;
* iostat-style load measurement on the server.

Clock semantics: trace time is compressed — pseudo-clients issue their
interval's requests back-to-back (plus driver overhead), so the replay's
wall clock advances much more slowly than trace time, exactly like the
paper's testbed.  All freshness dynamics (document mtimes, adaptive-TTL
ages, leases) live in wall time; the modifier's schedule is mapped from
trace time into the interval it falls in, so modification *rates* stay
consistent with the compressed request stream.

Fairness: the modification schedule, document sizes, initial ages and
client sharding derive from seed streams that do not depend on the
protocol, so all protocol runs of one experiment see identical workloads.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.protocol import Protocol
from ..hierarchy import ParentProxy
from ..http import (
    CATEGORY_GET,
    CATEGORY_IMS,
    CATEGORY_INVALIDATE,
    CATEGORY_REPLY_200,
    CATEGORY_REPLY_304,
)
from ..metrics import IostatSampler, ReplayCounters
from ..net import LanModel, LatencyModel, Network
from ..proxy import Cache, ProxyCache, ProxyCosts
from ..server import (
    DEFAULT_SERVER_COSTS,
    AcceleratorCluster,
    AdaptiveLeaseController,
    FileStore,
    ServerSite,
)
from ..sim import RngRegistry, Simulator
from ..traces import Trace
from ..workload import Modifier, generate_schedule
from .auditor import ConsistencyAuditor
from .coordinator import TimeCoordinator
from .faults import FaultSchedule, apply_schedule
from .pseudo_client import PseudoClient, shard_records

__all__ = ["ExperimentConfig", "ExperimentResult", "run_experiment"]


def unknown_value(label: str, value, choices) -> str:
    """Error text for a bad choice, suggesting the closest spelling.

    ``choices`` are listed in the order given.
    """
    suggestion = difflib.get_close_matches(str(value), list(choices), n=1)
    hint = f"; did you mean {suggestion[0]!r}?" if suggestion else ""
    options = ", ".join(repr(c) for c in choices)
    return f"unknown {label} {value!r}{hint} (choose from {options})"


# The testbed's fixed settings (Section 5.1).

#: Coordinator lock-step, in trace seconds (the paper's 5-minute intervals).
INTERVAL = 300.0
#: Document sizes are divided by this for *time* computations (disk
#: reads, network transfer), while byte accounting stays full-size: the
#: paper's factor-100 scaling methodology.
SIZE_SCALE = 100.0
#: Pseudo-client driver overhead per request, wall seconds.
THINK_TIME = 1.0
#: Wall seconds the modifier spends per touch.
MODIFIER_OVERHEAD = 0.5
#: Capacity of each parent cache of a hierarchy.
PARENT_CACHE_BYTES = 256 * 1024 * 1024
#: The default server and proxy cost models with their per-KB times
#: scaled by :data:`SIZE_SCALE`.  Message sizes are the constants of
#: :mod:`repro.http.wire`.
SERVER_COSTS = dataclasses.replace(
    DEFAULT_SERVER_COSTS,
    cpu_per_kb=DEFAULT_SERVER_COSTS.cpu_per_kb / SIZE_SCALE,
    disk_read_per_kb=DEFAULT_SERVER_COSTS.disk_read_per_kb / SIZE_SCALE,
)
PROXY_COSTS = dataclasses.replace(
    ProxyCosts(), cpu_serve_per_kb=ProxyCosts().cpu_serve_per_kb / SIZE_SCALE
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one replay run needs.

    Attributes:
        trace: the request trace to replay.
        protocol: the consistency approach under test.
        mean_lifetime: mean document lifetime, in *trace* seconds (the
            modifier interval derives from it: N = lifetime / num_files).
        num_pseudo_clients: proxy workstations (paper: 4).
        proxy_cache_bytes: per-proxy cache capacity; ``None`` = unbounded.
        seed: master seed for every stochastic stream.
        mean_initial_age: mean initial document age (wall s); default 0
            matches the paper's testbed where scaled document copies are
            created at setup time.
        detection: how the accelerator learns of modifications —
            ``"notify"`` (the paper's check-in utility, immediate) or
            ``"browser"`` (Section 4's other approach: the author views
            the modified page ``browser_view_delay`` wall seconds later,
            which triggers the accelerator's mtime check).
        browser_view_delay: mean wall delay before the author's view
            (uniform 0.5x-1.5x jitter), for ``detection="browser"``.
        latency_model: network latency override; default is the paper's
            100 Mb/s Ethernet LAN.  Pass a :class:`repro.net.WanModel`
            for the paper's "how would this look on the real Internet"
            extrapolation (give it ``size_scale=SIZE_SCALE`` yourself,
            as the default LAN model gets).
        hierarchy_parents: when set, insert that many upper-level caches
            between the leaf proxies and the server (leaf ``i`` uses
            parent ``i mod N``) — the Worrell [14] configuration from the
            related-work discussion.  Only meaningful for invalidation
            protocols.  Each parent caches :data:`PARENT_CACHE_BYTES`.
        shards: accelerator shards behind the ``server`` address.  The
            default 1 is the paper's single accelerator (bit-identical to
            the pre-cluster code path); ``> 1`` builds a
            :class:`repro.server.AcceleratorCluster` that partitions
            documents across shards by consistent hashing.
        batch_window: seconds a shard may hold a proxy's invalidations
            open to coalesce them into one batched INVALIDATE (0 with
            ``batch_max`` 0 disables batching; shards only).
        batch_max: flush a shard's per-proxy invalidation buffer as soon
            as it holds this many (url, client) pairs (0 = no size cap;
            shards only).
        fault_schedule: optional :class:`repro.chaos.FaultSchedule` (or
            its ``to_dict()`` form) of crashes/partitions/link faults/
            clock skew to inject during the replay.
        audit: publish the verdict of the strong-consistency auditor
            (:class:`repro.chaos.ConsistencyAuditor`, which rides every
            replay) in ``result.chaos``.
        fast_path: ignored; every replay takes the one request route.
            Kept only because ``perfbench/run.py`` still passes
            ``fast_path=False`` for its audited reference replay.
        observation: optional :class:`repro.obs.Observation` receiving
            per-request metric series, lifecycle spans and end-of-run
            aggregates.  Observing changes no result;
            ``Observation(deep=True)`` additionally traces every kernel
            event (slower, same results).  Not picklable — use ``None``
            (the default) with parallel sweep runners and aggregate from
            checkpoints instead.
    """

    trace: Trace
    protocol: Protocol
    mean_lifetime: float
    num_pseudo_clients: int = 4
    proxy_cache_bytes: Optional[int] = 64 * 1024 * 1024
    seed: int = 42
    mean_initial_age: float = 0.0
    detection: str = "notify"
    browser_view_delay: float = 120.0
    latency_model: Optional[LatencyModel] = None
    hierarchy_parents: Optional[int] = None
    fault_schedule: Optional[object] = None
    audit: bool = False
    fast_path: bool = True
    observation: Optional[object] = None
    shards: int = 1
    batch_window: float = 0.0
    batch_max: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "ExperimentConfig":
        """Check every cross-field constraint; returns ``self`` when valid.

        Raises :class:`ValueError` with actionable messages — string
        enums suggest the closest valid spelling, so a typo like
        ``detection="notfy"`` points at ``"notify"`` instead of only
        listing the alternatives.  Construction runs this automatically,
        and so does ``dataclasses.replace``; the config is frozen, so a
        valid config stays valid.
        """
        if self.mean_lifetime <= 0:
            raise ValueError("mean_lifetime must be positive")
        if self.num_pseudo_clients < 1:
            raise ValueError("need at least one pseudo-client")
        if self.detection not in ("notify", "browser"):
            raise ValueError(
                unknown_value("detection mode", self.detection,
                              ("notify", "browser"))
            )
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        if self.batch_max < 0:
            raise ValueError("batch_max must be non-negative")
        if self.shards == 1 and (self.batch_window or self.batch_max):
            raise ValueError(
                "invalidation batching (batch_window/batch_max) requires "
                "shards > 1 — the single-accelerator path is kept "
                "bit-identical to the paper's testbed"
            )
        if self.shards > 1 and self.hierarchy_parents:
            raise ValueError(
                "shards > 1 cannot be combined with hierarchy_parents"
            )
        if self.shards > 1 and self.protocol.adaptive_lease_budget:
            raise ValueError(
                "shards > 1 cannot be combined with an adaptive-lease "
                "protocol (the controller assumes one accelerator)"
            )
        accel = self.protocol.accelerator
        if self.hierarchy_parents and accel.grant_leases and accel.lease_get == 0:
            raise ValueError(
                "hierarchy_parents cannot be combined with a protocol that "
                "grants zero-length GET leases (two-tier leases): the parent "
                "cache neither honours nor relays leases, so leaves would "
                "serve stale copies; use 'lease' or 'invalidation' behind a "
                "parent, or drop hierarchy_parents"
            )
        return self


@dataclass
class ExperimentResult:
    """Everything Tables 3-5 print for one (protocol, trace) run."""

    protocol: str
    trace_name: str
    mean_lifetime: float
    total_requests: int
    files_modified: int

    counters: ReplayCounters = field(default_factory=ReplayCounters)

    # Wire-measured message counts (Tables 3-4 rows).
    gets: int = 0
    ims: int = 0
    replies_200: int = 0
    replies_304: int = 0
    invalidations: int = 0
    total_messages: int = 0
    message_bytes: int = 0

    # Server load (iostat).
    cpu_utilization: float = 0.0
    disk_utilization: float = 0.0
    disk_reads_per_sec: float = 0.0
    disk_writes_per_sec: float = 0.0

    # Invalidation costs (Table 5).
    sitelist_storage_bytes: int = 0
    sitelist_entries: int = 0
    sitelist_avg_len: float = 0.0
    sitelist_max_len: int = 0
    invalidation_time_avg: float = 0.0
    invalidation_time_max: float = 0.0
    invalidations_sent: int = 0
    #: Expired site-list entries evicted under the lease-grace rule
    #: during the run (0 for protocols without finite leases).
    sitelist_evictions: int = 0

    # Origin-server-side counters (differ from the wire counts when a
    # hierarchy adds a second hop).
    origin_requests: int = 0
    origin_replies_200: int = 0
    origin_replies_304: int = 0

    # Hierarchy extension (zero when no parents are configured).
    parent_upstream_fetches: int = 0
    parent_invalidations_forwarded: int = 0

    wall_time: float = 0.0

    # Chaos verdict (auditor report + network-fault and schedule data);
    # ``None`` unless the run was audited or fault-injected.
    chaos: Optional[dict] = None

    # Sharded-accelerator panel (per-shard counters, imbalance, batching
    # savings); ``None`` unless the run used ``shards > 1``.
    cluster: Optional[dict] = None

    @property
    def hits(self) -> int:
        """Cache hits (protocol-specific definition, see core policies)."""
        return self.counters.hits

    @property
    def stale_serves(self) -> int:
        """Unvalidated serves of outdated content.

        For adaptive TTL these are the paper's stale hits.  For the
        invalidation family a nonzero value reflects reads concurrent
        with an in-flight invalidation fan-out (the write has not
        completed), which the paper's strong-consistency definition
        permits; true violations are counted separately.
        """
        return self.counters.stale_serves

    @property
    def violations(self) -> int:
        """Strong-consistency violations (must be zero).

        The count of the :class:`repro.chaos.ConsistencyAuditor` that
        rides every replay: unvalidated stale serves no open obligation
        excuses.  Always 0 for a weak protocol, whose staleness is its
        accepted trade-off.
        """
        return self.counters.violations

    @property
    def avg_latency(self) -> float:
        """Mean client-observed request latency, in seconds."""
        return self.counters.latency.mean

    @property
    def min_latency(self) -> float:
        """Fastest observed request latency, in seconds."""
        return self.counters.latency.min

    @property
    def max_latency(self) -> float:
        """Slowest observed request latency, in seconds."""
        return self.counters.latency.max


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Replay one trace under one protocol; returns the measured result."""
    trace = config.trace
    protocol = config.protocol
    rng = RngRegistry(config.seed)
    sim = Simulator()

    latency_model = config.latency_model or LanModel(size_scale=SIZE_SCALE)
    network = Network(sim, latency=latency_model)

    filestore = FileStore.from_catalog(
        trace.documents,
        mean_initial_age=config.mean_initial_age,
        rng=rng.stream("initial-ages"),
    )
    cluster = None
    if config.shards > 1:
        cluster = AcceleratorCluster(
            sim,
            network,
            "server",
            filestore,
            accel=protocol.accelerator,
            costs=SERVER_COSTS,
            num_shards=config.shards,
            batch_window=config.batch_window,
            batch_max=config.batch_max,
        )
        server = cluster
        sites = cluster.shards
    else:
        server = ServerSite(
            sim,
            network,
            "server",
            filestore,
            accel=protocol.accelerator,
            costs=SERVER_COSTS,
        )
        sites = [server]

    parents = []
    if config.hierarchy_parents:
        parents = [
            ParentProxy(
                sim,
                network,
                f"parent-{i}",
                "server",
                cache=Cache(capacity_bytes=PARENT_CACHE_BYTES),
                costs=PROXY_COSTS,
            )
            for i in range(config.hierarchy_parents)
        ]

    counters = ReplayCounters()
    observation = config.observation
    oracle = lambda url: filestore.get(url).last_modified  # noqa: E731
    shards = shard_records(trace.records, config.num_pseudo_clients)
    clients: List[PseudoClient] = []
    proxies: List[ProxyCache] = []
    for i, shard in enumerate(shards):
        upstream = (
            parents[i % len(parents)].address if parents else "server"
        )
        proxy = ProxyCache(
            sim,
            network,
            f"proxy-{i}",
            upstream,
            policy=protocol.client_policy,
            cache=Cache(
                capacity_bytes=config.proxy_cache_bytes,
                expired_first=protocol.expired_first_cache,
            ),
            costs=PROXY_COSTS,
            oracle=oracle,
        )
        proxies.append(proxy)
        client = PseudoClient(
            proxy,
            shard,
            counters,
            think_time=THINK_TIME,
            rng=rng.stream(f"think-{i}"),
        )
        # Records at the one seam every request ends in, after the
        # counters, so observing keeps bit-identical outcomes.
        client.observation = observation
        clients.append(client)

    auditor = ConsistencyAuditor(
        sites, strong=protocol.strong, detection=config.detection,
        parents=parents,
    )
    for proxy in proxies:
        proxy.observer = auditor
    for site in sites:
        # Operator-configured roster: lets a site that lost its persistent
        # site log still reach every cache it serves directly on recovery.
        site.proxy_roster = {p.address for p in parents or proxies}
        if observation is not None:
            site.fanout_listener = observation.fanout_listener

    schedule_obj = None
    if config.fault_schedule is not None:
        schedule_obj = config.fault_schedule
        if isinstance(schedule_obj, dict):
            schedule_obj = FaultSchedule.from_dict(schedule_obj)
        fault_log = apply_schedule(
            schedule_obj.faults, sim, network, server,
            {p.address: p for p in proxies}, cluster=cluster,
        )

    # Modification schedule in trace time (identical across protocols).
    schedule = generate_schedule(
        sorted(trace.documents),
        duration=trace.duration,
        mean_lifetime_seconds=config.mean_lifetime,
        rng=rng.stream("modifications"),
    )

    browser_rng = rng.stream("browser-views")

    def notify_change(url: str) -> None:
        if config.detection == "notify":
            server.check_in(url)
        else:
            # Browser-based detection: the author views the page a bit
            # later; the accelerator then compares mtimes.
            delay = config.browser_view_delay * browser_rng.uniform(0.5, 1.5)
            sim.call_later(delay, server.check_document, url)

    modifier = Modifier(
        sim,
        schedule,
        touch=lambda url: filestore.modify(url, now=sim.now),
        check_in=notify_change if protocol.needs_check_in else None,
        overhead=MODIFIER_OVERHEAD,
    )

    coordinator = TimeCoordinator(sim, interval=INTERVAL)
    for client in clients:
        coordinator.register(client)
    coordinator.register(modifier)

    if observation is not None:
        # Bound after the coordinator exists so phases can be derived
        # from its trace clock (no events of its own are scheduled).
        observation.bind(
            sim,
            protocol=protocol.name,
            trace_name=trace.name,
            coordinator=coordinator,
            duration=trace.duration,
        )

    iostat = IostatSampler(sim, sites)
    lease_controller = None
    if protocol.adaptive_lease_budget:
        lease_controller = AdaptiveLeaseController(
            sim,
            server,
            state_budget_bytes=protocol.adaptive_lease_budget,
            initial_lease=protocol.accelerator.lease_get,
        )
    # The coordinator's end stops the lease controller (alone it would
    # keep the queue alive forever); the run then drains stragglers
    # (in-flight invalidation fan-outs, last replies).
    coordinator.start(
        trace.duration, None if lease_controller is None else lease_controller.stop
    )
    sim.run()
    if not coordinator.finished:
        raise RuntimeError("replay deadlocked before completing the trace")
    wall_time = sim.now
    counters.violations = auditor.violation_count

    stats = network.stats
    if protocol.accelerator.grant_leases:
        # Reclaim expired leases before reading end-of-run storage, as a
        # lease-aware server would.
        for site in sites:
            site.table.purge_expired(sim.now)
    tables = [site.table for site in sites]
    lengths = [n for table in tables for n in table.lengths_at_modification]
    inval_times = [t for site in sites for t in site.invalidation_times]
    result = ExperimentResult(
        protocol=protocol.name,
        trace_name=trace.name,
        mean_lifetime=config.mean_lifetime,
        total_requests=len(trace.records),
        files_modified=modifier.modifications_applied,
        counters=counters,
        gets=stats.messages(CATEGORY_GET),
        ims=stats.messages(CATEGORY_IMS),
        replies_200=stats.messages(CATEGORY_REPLY_200),
        replies_304=stats.messages(CATEGORY_REPLY_304),
        invalidations=stats.messages(CATEGORY_INVALIDATE),
        total_messages=stats.total_messages,
        message_bytes=stats.total_bytes,
        cpu_utilization=iostat.cpu_utilization(),
        disk_utilization=iostat.disk_utilization(),
        disk_reads_per_sec=iostat.disk_reads_per_sec(),
        disk_writes_per_sec=iostat.disk_writes_per_sec(),
        sitelist_storage_bytes=sum(t.storage_bytes() for t in tables),
        sitelist_entries=sum(t.total_entries() for t in tables),
        sitelist_avg_len=sum(lengths) / len(lengths) if lengths else 0.0,
        sitelist_max_len=max(lengths, default=0),
        invalidation_time_avg=(
            sum(inval_times) / len(inval_times) if inval_times else 0.0
        ),
        invalidation_time_max=max(inval_times) if inval_times else 0.0,
        invalidations_sent=sum(s.invalidations_sent for s in sites),
        sitelist_evictions=sum(t.evictions for t in tables),
        origin_requests=sum(s.requests_handled for s in sites),
        origin_replies_200=sum(s.replies_200 for s in sites),
        origin_replies_304=sum(s.replies_304 for s in sites),
        parent_upstream_fetches=sum(p.upstream_fetches for p in parents),
        parent_invalidations_forwarded=sum(
            p.invalidations_forwarded for p in parents
        ),
        wall_time=wall_time,
    )
    if cluster is not None:
        routed = [cluster.requests_routed[s.address] for s in cluster.shards]
        mean_routed = sum(routed) / len(routed) if routed else 0.0
        result.cluster = {
            "shards": config.shards,
            "batch_window": config.batch_window,
            "batch_max": config.batch_max,
            "per_shard": {
                s.address: {
                    "requests_routed": cluster.requests_routed[s.address],
                    "requests_handled": s.requests_handled,
                    "replies_200": s.replies_200,
                    "replies_304": s.replies_304,
                    "invalidations_sent": s.invalidations_sent,
                    "batches_sent": s.batches_sent,
                    "batched_invalidations": s.batched_invalidations,
                    "sitelist_entries": s.table.total_entries(),
                    "sitelist_storage_bytes": s.table.storage_bytes(),
                    "sitelist_evictions": s.table.evictions,
                }
                for s in cluster.shards
            },
            "max_requests_routed": max(routed) if routed else 0,
            "mean_requests_routed": mean_routed,
            "imbalance_ratio": (
                max(routed) / mean_routed if mean_routed else 0.0
            ),
            "handoffs": cluster.handoffs,
            "shard_crashes": cluster.shard_crashes,
            "rebalances": cluster.rebalances,
            "batches_delivered": sum(s.batches_sent for s in cluster.shards),
            "batched_invalidations_delivered": sum(
                s.batched_invalidations for s in cluster.shards
            ),
        }
    if config.audit or schedule_obj is not None:
        chaos = auditor.report(counters) if config.audit else {}
        chaos["network"] = {
            "messages_sent": stats.messages_sent,
            "messages_lost": stats.messages_lost,
            "lost_by_reason": stats.lost_by_reason(),
            "duplicates_delivered": stats.duplicates_delivered,
            "invalidations_abandoned": sum(
                s.invalidations_abandoned for s in sites
            ),
        }
        if schedule_obj is not None:
            chaos["schedule"] = schedule_obj.to_dict()
            chaos["fault_log"] = fault_log
        result.chaos = chaos
    if observation is not None:
        observation.finish(
            sim=sim,
            result=result,
            network_stats=stats,
            proxies=proxies,
            iostat=iostat,
        )
    return result
