"""Sharded accelerator tier: consistent hashing over ``ServerSite`` shards.

The paper's accelerator is one process; its per-document site lists and
serial INVALIDATE fan-out are the scalability ceiling Sections 6-7
concede.  This module scales that tier out while keeping the paper's
consistency story intact:

* :class:`HashRing` — consistent hashing with virtual nodes.  Documents
  partition across N accelerator shards, and the membership is fixed
  when the ring is built; excluding a shard (crashed or drained) moves
  only its own ~K/N keys (the classic rebalance property, tested in
  ``tests/test_cluster.py``).
* :class:`AcceleratorCluster` — the router in front of the shards.
  Each shard is a plain :class:`~repro.server.httpd.ServerSite`, built
  with the cluster's ``batch_window``/``batch_max``, so the shards
  batch their INVALIDATE fan-out through the same one fan-out routine
  the single accelerator uses.  The cluster registers the public
  ``server`` address and routes each request and modification report to
  the owning shard in-process (no extra wire hop: the shards and the
  router are one tier sharing a LAN-attached fleet).  It keeps routing,
  failover, rebalance and crash / recovery, and nothing else: it reads
  no counter, site list or obligation on the replay's behalf.  The
  experiment runner treats its ``shards`` as the replay's sites, exactly
  as it treats the one ``ServerSite`` of an unsharded run, and sums,
  pools and queries them itself (iostat, end-of-run results, the
  auditor, per-site hooks).  ``shards=1`` builds no cluster at all.

Routing a request costs about one dict lookup, because two things are
cached.  The cluster remembers each document's serving shard
(``url -> shard``); that answer depends only on the ring membership,
which never changes after the cluster is built, and on the excluded
(crashed or drained) shards, so ``_refresh_excluded``, the one place the
exclusions change, is the one place the memo is cleared.  And a node's
virtual-node ring points depend only on its name, so :class:`HashRing`
hashes them once per process, for every ring that holds the node; a
document's own ring point stays per ring.  The
cluster-wide flush-on-contact asks a non-owner shard to re-send only
when it owes the contacting proxy an abandoned INVALIDATE.

Failover reuses the single accelerator's recovery semantics.  When a
shard crashes, the hash ring routes its documents to the surviving
shards (they share the one :class:`~repro.server.filestore.FileStore`);
while one is down, not every site is up, which the auditor treats as
the origin-down allowed-staleness window.  On recovery the shard replays
its persistent known-sites log as INVALIDATE-by-server messages (marking
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
from ..net import Message, Network
from ..sim import Simulator
from .accelerator import AcceleratorConfig
from .costs import DEFAULT_SERVER_COSTS, ServerCosts
from .filestore import FileStore
from .httpd import ServerSite

__all__ = ["HashRing", "AcceleratorCluster"]

#: Virtual nodes per ring member.
VNODES = 64


class HashRing:
    """Consistent-hash ring with :data:`VNODES` virtual nodes per node.

    Deterministic across processes (MD5, not Python's seeded ``hash``),
    so a document's owning shard is a pure function of the ring
    membership — replays and parallel sweeps agree on placement.
    """

    #: node -> its virtual-node ring entries.  They depend on nothing
    #: else, so every ring in the process shares them.
    _node_points: Dict[str, Tuple[Tuple[int, str], ...]] = {}

    def __init__(self, nodes: Iterable[str]) -> None:
        ring: List[Tuple[int, str]] = []
        for node in dict.fromkeys(nodes):
            points = self._node_points.get(node)
            if points is None:
                points = self._node_points[node] = tuple(
                    (self._hash(f"{node}#{i}"), node) for i in range(VNODES)
                )
            ring.extend(points)
        ring.sort()
        self._ring = ring
        self._points = [point for point, _node in ring]
        #: key -> its ring point, so each routed key is hashed once.
        self._key_points: Dict[str, int] = {}

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.md5(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def owner(self, key: str, exclude: Iterable[str] = ()) -> Optional[str]:
        """The node owning ``key``: first clockwise, skipping ``exclude``.

        Walking past excluded (down/draining) nodes is what gives
        failover for free: a crashed shard's keys land on its ring
        successors and return home the instant it rejoins.
        Returns ``None`` when the ring is empty or fully excluded.
        """
        exclude = exclude if isinstance(exclude, (set, frozenset)) else set(exclude)
        point = self._key_points.get(key)
        if point is None:
            point = self._key_points[key] = self._hash(key)
        index = bisect.bisect_right(self._points, point)
        size = len(self._ring)
        for step in range(size):
            node = self._ring[(index + step) % size][1]
            if node not in exclude:
                return node
        return None


class AcceleratorCluster:
    """The sharded accelerator tier, behind the single ``server`` address.

    Partitions documents across :class:`ServerSite` shards by consistent
    hashing and routes each request to its owner in-process (the router
    adds no wire messages; replies carry the shard's source address and
    proxies match them by ``reply_to``).  Besides routing it does
    failover, rebalance and whole-tier crash/recovery; everything the
    replay measures is read from :attr:`shards` directly.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        filestore: FileStore,
        accel: Optional[AcceleratorConfig] = None,
        costs: ServerCosts = DEFAULT_SERVER_COSTS,
        num_shards: int = 2,
        batch_window: float = 0.0,
        batch_max: int = 0,
    ) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.network = network
        self.address = address

        self.shards: List[ServerSite] = [
            ServerSite(
                sim,
                network,
                f"shard-{i}",
                filestore,
                accel=accel,
                costs=costs,
                batch_window=batch_window,
                batch_max=batch_max,
            )
            for i in range(num_shards)
        ]
        self._by_address = {shard.address: shard for shard in self.shards}
        self.ring = HashRing([s.address for s in self.shards])
        #: Crashed / draining shard addresses (kept separately so a drain
        #: overlapping a crash resolves correctly); ``_excluded`` is the
        #: materialized union the per-request routing reads.
        self._crashed: Set[str] = set()
        self._drained: Set[str] = set()
        self._excluded: Set[str] = set()
        #: url -> the shard serving it under the current exclusions.  The
        #: ring's membership never changes after construction, so only
        #: :meth:`_refresh_excluded` has to forget these.
        self._owners: Dict[str, ServerSite] = {}

        #: Requests routed per shard address (the imbalance panel input).
        self.requests_routed: Dict[str, int] = {
            shard.address: 0 for shard in self.shards
        }
        #: Site-list entries moved between shards (failover + rebalance).
        self.handoffs = 0
        self.shard_crashes = 0
        self.rebalances = 0

        network.register(address, self._receive)

    # -- routing ------------------------------------------------------------

    def _owner(self, url: str) -> ServerSite:
        """The shard serving ``url``, remembered until the exclusions change."""
        shard = self._owners.get(url)
        if shard is None:
            owner = self.ring.owner(url, exclude=self._excluded)
            if owner is None:
                # Whole tier down/drained: fall back to the primary owner
                # (its down state swallows the request, like a dead server).
                owner = self.ring.owner(url)
            shard = self._owners[url] = self._by_address[owner]
        return shard

    def owner_of(self, url: str) -> str:
        """The address of the shard currently serving ``url``."""
        return self._owner(url).address

    def _refresh_excluded(self) -> None:
        self._excluded = self._crashed | self._drained
        self._owners.clear()

    def _receive(self, message: Message) -> None:
        if not isinstance(message, HttpRequest):
            return
        shard = self._owners.get(message.url)
        if shard is None:
            shard = self._owner(message.url)
        # Cluster-wide flush-on-next-contact: any *other* live shard owing
        # this proxy abandoned invalidations uses the contact to retry
        # (the owner handles its own debt when it receives the request).
        # A debt is rare, so each shard is asked only when it has one.
        proxy = message.src
        for other in self.shards:
            if proxy in other._owed and other is not shard and other.up:
                other.note_contact(proxy)
        self.requests_routed[shard.address] += 1
        message.dst = shard.address
        shard._receive(message)

    # -- modification detection --------------------------------------------

    def check_in(self, url: str) -> None:
        """Route the check-in utility's report to the owning shard."""
        self._owner(url).check_in(url)

    def check_document(self, url: str) -> bool:
        """Route the browser-based mtime check to the owning shard."""
        return self._owner(url).check_document(url)

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
            lists = shard.table._lists
            stale = [url for url in lists if self._owner(url) is not shard]
            orphan_seen = [
                url
                for url in shard._seen_mtime
                if url not in lists and self._owner(url) is not shard
            ]
            for url in stale + orphan_seen:
                self._transfer_url(shard, self._owner(url), url)

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

    def recover_shard(self, address: str) -> None:
        """Recover one shard: broadcast recovery, take ownership back.

        The shard's own :meth:`ServerSite.recover` replays the
        persistent known-sites log as INVALIDATE-by-server messages (the
        paper's Section 4 story); the cluster then hands back the site
        lists that accumulated on failover shards during the outage, so
        subsequent modifications find every registrant.
        """
        shard = self._by_address[address]
        if shard.up:
            return
        self._crashed.discard(address)
        self._refresh_excluded()
        shard.recover()
        self._rebalance()

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

    def recover(self) -> None:
        """Recover every crashed shard."""
        self.network.set_up(self.address)
        recovered = [s for s in self.shards if not s.up]
        for shard in recovered:
            self._crashed.discard(shard.address)
        self._refresh_excluded()
        for shard in recovered:
            shard.recover()
        self._rebalance()

