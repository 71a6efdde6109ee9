"""Sharded accelerator tier: consistent hashing over ``ServerSite`` shards.

The paper's accelerator is one process; its per-document site lists and
serial INVALIDATE fan-out are the scalability ceiling Sections 6-7
concede.  This module scales that tier out while keeping the paper's
consistency story intact:

* :class:`HashRing` — consistent hashing with virtual nodes.  Documents
  partition across N accelerator shards; adding/removing a shard moves
  only ~K/N keys (the classic rebalance property, tested in
  ``tests/test_cluster.py``).
* :class:`AcceleratorCluster` — the facade the replay harness talks to.
  Each shard is a plain :class:`~repro.server.httpd.ServerSite`, built
  with the cluster's ``batch_window``/``batch_max``, so the shards
  batch their INVALIDATE fan-out through the same one fan-out routine
  the single accelerator uses.  The cluster registers the public
  ``server`` address, routes each request to the owning shard
  in-process (no extra wire hop: the shards and the router are one tier
  sharing a LAN-attached fleet), and mirrors the single ``ServerSite``
  surface (counters, obligations ledger queries, crash / recovery) so
  every existing layer — iostat, observability, the auditor — works
  unmodified.  ``shards=1`` is routed through the plain ``ServerSite``
  by the experiment runner, so the legacy path stays bit-identical.

Failover reuses the single accelerator's recovery semantics.  When a shard crashes, the
hash ring routes its documents to the surviving shards (they share the
one :class:`~repro.server.filestore.FileStore`); the cluster reports
``up=False`` while degraded, which the auditor treats as the
origin-down allowed-staleness window.  On recovery the shard replays its
persistent known-sites log as INVALIDATE-by-server messages (marking
proxies' copies questionable) and the cluster hands the site lists that
accumulated on failover shards back to the recovered owner, so later
modifications find their registrants.  Planned rebalances (the chaos
``shard_rebalance`` fault) do the same site-list handoff live, without a
crash.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..http import HttpRequest
from ..http.wire import DEFAULT_WIRE, WireCosts
from ..net import Message, Network
from ..sim import Simulator
from .accelerator import AcceleratorConfig
from .costs import DEFAULT_SERVER_COSTS, ServerCosts
from .filestore import FileStore
from .httpd import ServerSite

__all__ = ["HashRing", "AcceleratorCluster", "ClusterTable"]


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Deterministic across processes (MD5, not Python's seeded ``hash``),
    so a document's owning shard is a pure function of the ring
    membership — replays and parallel sweeps agree on placement.
    """

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("need at least one virtual node per node")
        self.vnodes = vnodes
        self._ring: List[Tuple[int, str]] = []
        self._points: List[int] = []
        self._nodes: Set[str] = set()
        for node in nodes:
            self.add_node(node)

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.md5(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def _rebuild(self) -> None:
        self._ring.sort()
        self._points = [point for point, _node in self._ring]

    def add_node(self, node: str) -> None:
        """Add ``node`` (idempotent); moves ~K/N keys onto it."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        self._ring.extend(
            (self._hash(f"{node}#{i}"), node) for i in range(self.vnodes)
        )
        self._rebuild()

    def remove_node(self, node: str) -> None:
        """Remove ``node`` (idempotent); its keys spread over the rest."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._ring = [(p, n) for p, n in self._ring if n != node]
        self._rebuild()

    @property
    def nodes(self) -> frozenset:
        """The current ring membership."""
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def owner(self, key: str, exclude: Iterable[str] = ()) -> Optional[str]:
        """The node owning ``key``: first clockwise, skipping ``exclude``.

        Walking past excluded (down/draining) nodes is what gives
        failover for free: a crashed shard's keys land on its ring
        successors and return home the instant it rejoins.
        Returns ``None`` when the ring is empty or fully excluded.
        """
        if not self._ring:
            return None
        exclude = exclude if isinstance(exclude, (set, frozenset)) else set(exclude)
        index = bisect.bisect_right(self._points, self._hash(key))
        size = len(self._ring)
        for step in range(size):
            node = self._ring[(index + step) % size][1]
            if node not in exclude:
                return node
        return None


class ClusterTable:
    """Aggregate invalidation-table view over every shard.

    Implements the slice of the :class:`~repro.server.sitelist.InvalidationTable`
    surface the replay/observability layers read, summing across shards.
    Reads ``shard.table`` dynamically so post-crash table replacement is
    reflected automatically.
    """

    def __init__(self, shards: List[ServerSite]) -> None:
        self._shards = shards

    def purge_expired(self, now: float) -> int:
        """Purge expired leases on every shard; returns total dropped."""
        return sum(s.table.purge_expired(now) for s in self._shards)

    def total_entries(self, now: Optional[float] = None) -> int:
        """Site-list entries across all shards."""
        return sum(s.table.total_entries(now) for s in self._shards)

    def storage_bytes(self) -> int:
        """Site-list memory across all shards, accounting bytes."""
        return sum(s.table.storage_bytes() for s in self._shards)

    def max_list_length(self) -> int:
        """Largest current site list across the cluster."""
        lengths = [s.table.max_list_length() for s in self._shards]
        return max(lengths) if lengths else 0

    def modified_list_lengths(self) -> Tuple[float, int]:
        """(average, max) modified-list length pooled across shards."""
        lengths: List[int] = []
        for shard in self._shards:
            lengths.extend(shard.table._lengths_at_modification)
        if not lengths:
            return (0.0, 0)
        return (sum(lengths) / len(lengths), max(lengths))

    @property
    def evictions(self) -> int:
        """Lease-grace evictions summed across shards."""
        return sum(s.table.evictions for s in self._shards)


class _AggregateResource:
    """Mean ``busy_time`` over shard resources.

    The iostat sampler divides ``busy_time()`` by elapsed time to get a
    utilization in [0, 1]; averaging (not summing) keeps that invariant
    for a fleet of single-CPU/single-disk shard hosts.
    """

    def __init__(self, resources) -> None:
        self._resources = list(resources)

    def busy_time(self) -> float:
        total = sum(r.busy_time() for r in self._resources)
        return total / len(self._resources)


class AcceleratorCluster:
    """The sharded accelerator tier, behind the single ``server`` address.

    Mirrors the :class:`~repro.server.httpd.ServerSite` surface the rest
    of the testbed expects — request receive, modification check-in,
    obligations-ledger queries, crash/recovery, counters — while
    partitioning documents across :class:`ServerSite` shards by
    consistent hashing and routing in-process (the router adds no wire
    messages; replies carry the shard's source address and proxies match
    them by ``reply_to``).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        filestore: FileStore,
        accel: Optional[AcceleratorConfig] = None,
        costs: ServerCosts = DEFAULT_SERVER_COSTS,
        wire: WireCosts = DEFAULT_WIRE,
        num_shards: int = 2,
        batch_window: float = 0.0,
        batch_max: int = 0,
        vnodes: int = 64,
    ) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.sim = sim
        self.network = network
        self.address = address
        self.filestore = filestore
        self.accel = accel or AcceleratorConfig()
        self.costs = costs
        self.wire = wire

        self.shards: List[ServerSite] = [
            ServerSite(
                sim,
                network,
                f"shard-{i}",
                filestore,
                accel=self.accel,
                costs=costs,
                wire=wire,
                batch_window=batch_window,
                batch_max=batch_max,
            )
            for i in range(num_shards)
        ]
        self._by_address = {shard.address: shard for shard in self.shards}
        self.ring = HashRing([s.address for s in self.shards], vnodes=vnodes)
        #: Crashed / draining shard addresses (kept separately so a drain
        #: overlapping a crash resolves correctly); ``_excluded`` is the
        #: materialized union the per-request routing reads.
        self._crashed: Set[str] = set()
        self._drained: Set[str] = set()
        self._excluded: Set[str] = set()

        self.table = ClusterTable(self.shards)
        self.cpu = _AggregateResource([s.cpu for s in self.shards])
        self.disk = _AggregateResource([s.disk for s in self.shards])

        #: Requests routed per shard address (the imbalance panel input).
        self.requests_routed: Dict[str, int] = {
            shard.address: 0 for shard in self.shards
        }
        #: Site-list entries moved between shards (failover + rebalance).
        self.handoffs = 0
        self.shard_crashes = 0
        self.rebalances = 0

        self.up = True
        network.register(address, self._receive)

    # -- routing ------------------------------------------------------------

    def owner_of(self, url: str) -> str:
        """The address of the shard currently serving ``url``."""
        owner = self.ring.owner(url, exclude=self._excluded)
        if owner is None:
            # Whole tier down/drained: fall back to the primary owner
            # (its down state swallows the request, like a dead server).
            owner = self.ring.owner(url)
        return owner

    def _refresh_excluded(self) -> None:
        self._excluded = self._crashed | self._drained
        self.up = not self._crashed

    def _receive(self, message: Message) -> None:
        if not isinstance(message, HttpRequest):
            return
        owner = self.owner_of(message.url)
        # Cluster-wide flush-on-next-contact: any *other* shard owing
        # this proxy abandoned invalidations uses the contact to retry
        # (the owner handles its own debt when it receives the request).
        for shard in self.shards:
            if shard.address == owner or not shard.up:
                continue
            if (
                message.src in shard._dirty_by_proxy
                or message.src in shard._dirty_server_inval
            ):
                self.sim.process(shard._flush_dirty(message.src))
        self.requests_routed[owner] += 1
        shard = self._by_address[owner]
        message.dst = shard.address
        shard._receive(message)

    # -- modification detection --------------------------------------------

    def check_in(self, url: str) -> None:
        """Route the check-in utility's report to the owning shard."""
        self._by_address[self.owner_of(url)].check_in(url)

    def check_document(self, url: str) -> bool:
        """Route the browser-based mtime check to the owning shard."""
        return self._by_address[self.owner_of(url)].check_document(url)

    # -- obligations ledger (queried by the chaos auditor) ------------------

    def write_pending(self, url: str, client_id: str) -> bool:
        """True while any shard still owes INVALIDATE(url) to the client."""
        return any(s.write_pending(url, client_id) for s in self.shards)

    def recovery_pending(self, proxy: str) -> bool:
        """True while any shard owes a post-crash INVALIDATE-by-server."""
        return any(s.recovery_pending(proxy) for s in self.shards)

    def change_pending_detection(self, url: str) -> bool:
        """True when a change has not yet been seen by any accelerator."""
        return any(s.change_pending_detection(url) for s in self.shards)

    # -- aggregate counters (read by the results/metrics layers) ------------

    @property
    def requests_handled(self) -> int:
        """Requests completed across all shards."""
        return sum(s.requests_handled for s in self.shards)

    @property
    def replies_200(self) -> int:
        """200 replies across all shards."""
        return sum(s.replies_200 for s in self.shards)

    @property
    def replies_304(self) -> int:
        """304 replies across all shards."""
        return sum(s.replies_304 for s in self.shards)

    @property
    def invalidations_sent(self) -> int:
        """INVALIDATE messages delivered, across all shards."""
        return sum(s.invalidations_sent for s in self.shards)

    @property
    def invalidations_abandoned(self) -> int:
        """Abandoned deliveries queued for flush-on-contact, all shards."""
        return sum(s.invalidations_abandoned for s in self.shards)

    @property
    def disk_reads(self) -> int:
        """Disk reads across all shards."""
        return sum(s.disk_reads for s in self.shards)

    @property
    def disk_writes(self) -> int:
        """Disk writes across all shards."""
        return sum(s.disk_writes for s in self.shards)

    @property
    def piggybacked_urls(self) -> int:
        """Piggybacked invalidation URLs across all shards (PSI)."""
        return sum(s.piggybacked_urls for s in self.shards)

    @property
    def batches_sent(self) -> int:
        """Batched INVALIDATE messages delivered, across all shards."""
        return sum(s.batches_sent for s in self.shards)

    @property
    def batched_invalidations(self) -> int:
        """Individual (url, client) pairs delivered in batches."""
        return sum(s.batched_invalidations for s in self.shards)

    @property
    def invalidation_times(self) -> List[float]:
        """Fan-out durations pooled across shards (open -> delivered)."""
        times: List[float] = []
        for shard in self.shards:
            times.extend(shard.invalidation_times)
        return times

    @property
    def fanout_listener(self):
        """The observability fan-out hook (shared by every shard)."""
        return self.shards[0].fanout_listener

    @fanout_listener.setter
    def fanout_listener(self, listener) -> None:
        for shard in self.shards:
            shard.fanout_listener = listener

    @property
    def proxy_roster(self) -> Set[str]:
        """Operator-configured fleet membership (shared by every shard)."""
        return self.shards[0].proxy_roster

    @proxy_roster.setter
    def proxy_roster(self, roster: Set[str]) -> None:
        for shard in self.shards:
            shard.proxy_roster = set(roster)

    @property
    def lease_override(self) -> Optional[float]:
        """Adaptive-lease override (shared by every shard)."""
        return self.shards[0].lease_override

    @lease_override.setter
    def lease_override(self, value: Optional[float]) -> None:
        for shard in self.shards:
            shard.lease_override = value

    # -- site-list handoff --------------------------------------------------

    def _transfer_url(
        self, source: ServerSite, target: ServerSite, url: str
    ) -> None:
        table = source.table
        site_list = table._lists.pop(url, None)
        table._in_rotation.discard(url)
        # Detection state moves with ownership (keep the newest mtime).
        seen = source._seen_mtime.pop(url, None)
        if seen is not None:
            known = target._seen_mtime.get(url)
            target._seen_mtime[url] = seen if known is None else max(known, seen)
        if site_list is None or not len(site_list):
            return
        dest = target.table.site_list(url)
        moved = 0
        for client_id, entry in site_list._entries.items():
            # The target's entry (registered after the handoff began) is
            # newer — keep it; otherwise adopt the moved entry.
            if client_id not in dest._entries:
                dest._entries[client_id] = entry
                moved += 1
        self.handoffs += moved

    def _rebalance(self) -> None:
        """Move every misplaced site list to its current owner."""
        for shard in self.shards:
            if not shard.up:
                continue
            stale = [
                url
                for url in shard.table._lists
                if self.owner_of(url) != shard.address
            ]
            orphan_seen = [
                url
                for url in shard._seen_mtime
                if url not in shard.table._lists
                and self.owner_of(url) != shard.address
            ]
            for url in stale:
                self._transfer_url(
                    shard, self._by_address[self.owner_of(url)], url
                )
            for url in orphan_seen:
                self._transfer_url(
                    shard, self._by_address[self.owner_of(url)], url
                )

    # -- shard failure / rebalance ------------------------------------------

    def crash_shard(self, address: str, lose_sitelog: bool = False) -> None:
        """Crash one shard; its documents fail over along the ring."""
        shard = self._by_address[address]
        if not shard.up:
            return
        shard.crash(lose_sitelog=lose_sitelog)
        self._crashed.add(address)
        self._refresh_excluded()
        self.shard_crashes += 1

    def recover_shard(self, address: str):
        """Recover one shard: broadcast recovery, take ownership back.

        The shard's own :meth:`ServerSite.recover` replays the
        persistent known-sites log as INVALIDATE-by-server messages (the
        paper's Section 4 story); the cluster then hands back the site
        lists that accumulated on failover shards during the outage, so
        subsequent modifications find every registrant.
        """
        shard = self._by_address[address]
        if shard.up:
            return None
        self._crashed.discard(address)
        self._refresh_excluded()
        process = shard.recover()
        self._rebalance()
        return process

    def drain_shard(self, address: str) -> None:
        """Planned rebalance: move a live shard's documents off it."""
        if address in self._drained:
            return
        self._drained.add(address)
        self._refresh_excluded()
        self.rebalances += 1
        if self._by_address[address].up:
            self._rebalance()

    def restore_shard(self, address: str) -> None:
        """End a drain: the shard takes its ring segment back."""
        if address not in self._drained:
            return
        self._drained.discard(address)
        self._refresh_excluded()
        if self._by_address[address].up:
            self._rebalance()

    # -- whole-tier crash / recovery (the ``server_crash`` fault) -----------

    def crash(self, lose_sitelog: bool = False) -> None:
        """Crash every shard (the single-server fault, scaled out)."""
        for shard in self.shards:
            if shard.up:
                shard.crash(lose_sitelog=lose_sitelog)
            self._crashed.add(shard.address)
        self._refresh_excluded()
        self.network.set_down(self.address)

    def recover(self) -> list:
        """Recover every crashed shard; returns their recovery processes."""
        self.network.set_up(self.address)
        processes = []
        recovered = [s for s in self.shards if not s.up]
        for shard in recovered:
            self._crashed.discard(shard.address)
        self._refresh_excluded()
        for shard in recovered:
            processes.append(shard.recover())
        self._rebalance()
        return processes

