"""Hierarchical caching: a parent (upper-level) proxy node.

Related work (Section 2): Worrell's thesis studied invalidation in
*hierarchical* network object caches and found that the hierarchy
"significantly reduces the overhead for invalidation" — the origin
server only tracks and invalidates the few top-level caches, which
propagate invalidations to the children that hold copies.  The paper
deliberately evaluates invalidation *without* hierarchies (they were not
yet deployed); this package supplies the hierarchy so that comparison
can be reproduced too.

A :class:`ParentProxy` is a network-served shared cache:

* children send it plain GET / If-Modified-Since requests (it looks like
  the origin server to them);
* it keeps an *interest table* — per URL, the (child proxy, real client)
  pairs that fetched the document — using the same
  :class:`~repro.server.InvalidationTable` machinery the accelerator
  uses;
* it registers itself (not its clients) with the upstream server, so the
  server's site lists hold one entry per parent instead of one per
  client site;
* on INVALIDATE from upstream it drops its copy and fans the
  invalidation out to interested children; the server-address form is
  forwarded to every known child;
* concurrent child misses for the same document are *coalesced* into a
  single upstream fetch (later requests join its waiting list);
* an upstream fetch ends without a reply when the parent crashes or
  :attr:`ParentProxy.reply_timeout` passes after its delivery, so a
  lost reply fails one round of child requests, not every later one.

A request is a chain of simulator callbacks: the lookup runs
``cpu_lookup`` after the request arrives, a fetch's send callback arms
its reply timer, the reply pays ``cpu_insert`` for a new copy, and each
200 reply its serve delay.  A crash ends every fetch in flight, and no
continuation scheduled before a crash does anything after it, even once
the parent has recovered.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple

from ..http import (
    NOT_MODIFIED,
    HttpRequest,
    HttpResponse,
    Invalidate,
    make_get,
    make_ims,
    make_invalidate,
    make_invalidate_server,
    make_reply_200,
    make_reply_304,
)
from ..net import Message, Network, ReliableChannel
from ..proxy.cache import Cache
from ..proxy.entry import CacheEntry
from ..proxy.proxy import ProxyCosts
from ..server.sitelist import InvalidationTable
from ..sim import Simulator

__all__ = ["ParentProxy"]

#: Pseudo client id under which the parent caches shared copies.
_SHARED = "*shared*"


class _Fetch:
    """One upstream GET or IMS and the child requests waiting on it."""

    __slots__ = ("url", "stale", "waiting", "timer")

    def __init__(
        self, url: str, stale: Optional[CacheEntry], request: HttpRequest
    ) -> None:
        self.url = url
        #: The questionable copy an IMS revalidates (``None`` for a GET).
        self.stale = stale
        #: Child requests served when the fetch ends, in arrival order.
        self.waiting = [request]
        #: The reply timer, armed once the request is delivered.
        self.timer = None


class ParentProxy:
    """An upper-level cache between leaf proxies and the origin server."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        server_address: str,
        cache: Cache = None,
        costs: ProxyCosts = ProxyCosts(),
    ) -> None:
        self.sim = sim
        self.network = network
        self.address = address
        self.server_address = server_address
        self.cache = cache if cache is not None else Cache()
        self.costs = costs
        self.channel = ReliableChannel(network)
        #: Seconds an upstream fetch waits for its reply once delivered
        #: (the leaf proxy's default).
        self.reply_timeout = 30.0

        #: Per-URL interest: which (child proxy, real client) hold copies.
        self.interest = InvalidationTable()
        #: Every child proxy ever seen (for server-form forwarding).
        self._known_children: Set[str] = set()
        #: The child INVALIDATEs still owed, keyed (url, client id), or
        #: (None, child proxy) for the server form, each with the
        #: forwarding chain due to deliver it.  The auditor reads it.
        self.owed: Dict[Tuple[Optional[str], str], Iterator[Invalidate]] = {}
        #: Upstream fetches waiting for a reply, by request msg_id.
        self._pending: Dict[int, _Fetch] = {}
        #: In-flight upstream fetches by URL; later misses join these.
        self._inflight: Dict[str, _Fetch] = {}
        #: Crashes so far.  A continuation carries the count from when it
        #: was scheduled and does nothing once a crash has moved it on.
        self._epoch = 0

        self.requests_served = 0
        self.upstream_fetches = 0
        self.coalesced_fetches = 0
        self.invalidations_received = 0
        self.invalidations_forwarded = 0
        self.up = True
        network.register(address, self._receive)

    # ------------------------------------------------------------------
    # network receive path
    # ------------------------------------------------------------------

    def _receive(self, message: Message) -> None:
        if not self.up:
            return
        if isinstance(message, HttpRequest):
            self._known_children.add(message.src)
            self.sim.call_later(
                self.costs.cpu_lookup, self._lookup, message, self._epoch
            )
        elif isinstance(message, HttpResponse):
            self._end_fetch(message.reply_to, message)
        elif isinstance(message, Invalidate):
            self.invalidations_received += 1
            self._propagate(message)

    # ------------------------------------------------------------------
    # request path (child -> parent -> server)
    # ------------------------------------------------------------------

    def _lookup(self, request: HttpRequest, epoch: int) -> None:
        """Serve ``request`` from the cache, or wait for an upstream fetch."""
        if epoch != self._epoch:
            return  # the host crashed during the lookup
        sim = self.sim
        url = request.url
        # Remember the child's interest so invalidations reach it.
        self.interest.register(url, request.client_id, proxy=request.src, now=sim.now)
        entry = self.cache.get(f"{url}@{_SHARED}", sim.now)
        if entry is not None and not entry.questionable:
            self._serve(request, entry)
            return
        fetch = self._inflight.get(url)
        if fetch is not None:
            self.coalesced_fetches += 1
            fetch.waiting.append(request)
            return
        if entry is None:
            upstream = make_get(
                self.address, self.server_address, url, client_id=self.address
            )
        else:  # revalidate the questionable copy
            upstream = make_ims(
                self.address, self.server_address, url, client_id=self.address,
                ims_timestamp=entry.last_modified,
            )
        fetch = _Fetch(url, entry, request)
        self._inflight[url] = fetch
        self._pending[upstream.msg_id] = fetch
        self.network.send(upstream, self._upstream_sent, upstream.msg_id)

    def _upstream_sent(self, delivered: bool, msg_id: int) -> None:
        """Arm the reply timer of a delivered fetch; end a refused one."""
        fetch = self._pending.get(msg_id)
        if fetch is None:
            return  # ended by a crash or an early reply
        if delivered:
            fetch.timer = self.sim.call_later(
                self.reply_timeout, self._end_fetch, msg_id, None
            )
        else:
            self._end_fetch(msg_id, None)

    def _end_fetch(self, msg_id: int, response) -> None:
        """Apply the reply to ``msg_id``; ``None`` means there is none.

        Without a reply nobody is served: each waiting child's own reply
        timer fails its request.
        """
        fetch = self._pending.pop(msg_id, None)
        if fetch is None:
            return  # a late or duplicate reply
        if response is None:  # refused, or the reply timer fired
            del self._inflight[fetch.url]
            return
        if fetch.timer is not None:
            self.sim.cancel(fetch.timer)
        sim = self.sim
        self.upstream_fetches += 1
        if response.status == NOT_MODIFIED:
            entry = fetch.stale
            entry.questionable = False
            self._fetched(fetch, entry, self._epoch)
            return
        entry = CacheEntry(
            url=fetch.url,
            client_id=_SHARED,
            size=response.body_bytes,
            last_modified=response.last_modified,
        )
        self.cache.put(entry, sim.now)
        sim.call_later(
            self.costs.cpu_insert, self._fetched, fetch, entry, self._epoch
        )

    def _fetched(self, fetch: _Fetch, entry: CacheEntry, epoch: int) -> None:
        """Serve every child request that waited on ``fetch``, in order."""
        if epoch != self._epoch:
            return  # the host crashed during the insert
        del self._inflight[fetch.url]
        for request in fetch.waiting:
            self._serve(request, entry)

    def _serve(self, request: HttpRequest, entry: CacheEntry) -> None:
        self.requests_served += 1
        if request.is_ims and entry.last_modified <= request.ims_timestamp:
            self.network.send(
                make_reply_304(request, entry.last_modified)
            )
        else:
            self.sim.call_later(
                self.costs.cpu_serve_per_kb * entry.size / 1024.0,
                self._send_200, request, entry, self._epoch,
            )

    def _send_200(self, request: HttpRequest, entry: CacheEntry, epoch: int) -> None:
        if epoch == self._epoch:  # the host has not crashed since
            self.network.send(
                make_reply_200(
                    request, body_bytes=entry.size, last_modified=entry.last_modified
                )
            )

    # ------------------------------------------------------------------
    # invalidation propagation (server -> parent -> children)
    # ------------------------------------------------------------------

    def _propagate(self, message: Invalidate) -> None:
        if message.server is not None:
            # Server recovered: everything we hold is questionable, and
            # every child must hear the same.
            self.cache.mark_all_questionable()
            self._forward(self._server_messages(message.server))
            return
        # Drop our shared copy of each document and invalidate the
        # interested children.
        for url, _clients in message.pairs:
            self.cache.remove(f"{url}@{_SHARED}")
            self._forward(self._child_messages(url))

    def _child_messages(self, url: str) -> Iterator[Invalidate]:
        """An INVALIDATE for every child copy of ``url``, owed from now."""
        entries = self.interest.note_modification(url, self.sim.now)
        messages = (
            make_invalidate(self.address, entry.proxy, ((url, (entry.client_id,)),))
            for entry in entries
        )
        for entry in entries:
            self.owed[(url, entry.client_id)] = messages
        return messages

    def _server_messages(self, server: str) -> Iterator[Invalidate]:
        """An INVALIDATE-by-server for every known child, owed from now."""
        messages = (
            make_invalidate_server(self.address, child, server=server)
            for child in sorted(self._known_children)
        )
        for child in self._known_children:
            self.owed[(None, child)] = messages
        return messages

    def _forward(self, messages: Iterator[Invalidate]) -> None:
        """Deliver ``messages`` one after another."""
        message = next(messages, None)
        if message is not None:
            self.channel.deliver(message, self._forwarded, message, messages)

    def _forwarded(self, _delivered: bool, message, messages) -> None:
        self.invalidations_forwarded += 1
        if message.server is None:
            ((url, (client_id,)),) = message.pairs
            self.interest.clear_after_invalidation(url, [client_id])
            key = (url, client_id)
        else:
            key = (None, message.dst)
        if self.owed.get(key) is messages:  # else a later chain owes it
            del self.owed[key]
        self._forward(messages)

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Parent host dies (interest table is volatile).

        Every upstream fetch ends without a reply, so no URL stays gated
        by a fetch whose reply this host will never see, and every
        lookup, insert or serve delay still running comes to nothing.
        """
        self.up = False
        self.network.set_down(self.address)
        self.interest = InvalidationTable()
        self.owed.clear()
        self._epoch += 1
        for fetch in self._pending.values():
            if fetch.timer is not None:
                self.sim.cancel(fetch.timer)
        self._pending.clear()
        self._inflight.clear()

    def recover(self) -> None:
        """Restart: our copies *and the children's* become questionable.

        While the parent was down its children missed every invalidation
        that should have flowed through it, so — exactly like the origin
        server's crash recovery — it sends an INVALIDATE carrying the
        server address to every child it has ever seen (the child log,
        like the server's site log, survives the crash on disk).
        """
        self.up = True
        self.network.set_up(self.address)
        self.cache.mark_all_questionable()
        self._forward(self._server_messages(self.server_address))
