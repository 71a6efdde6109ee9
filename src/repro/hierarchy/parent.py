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
  single upstream fetch (later requests wait on the in-flight one);
* an upstream fetch ends without a reply when the parent crashes or
  :attr:`ParentProxy.reply_timeout` passes after its delivery, so a
  lost reply fails one round of child requests, not every later one.
"""

from __future__ import annotations

from typing import Dict, Set

from ..http import (
    NOT_MODIFIED,
    HttpRequest,
    HttpResponse,
    Invalidate,
    make_get,
    make_ims,
    make_invalidate_server,
    make_invalidate_url,
    make_reply_200,
    make_reply_304,
)
from ..http.wire import DEFAULT_WIRE, WireCosts
from ..net import Message, Network, ReliableChannel, Unreachable
from ..proxy.cache import Cache
from ..proxy.entry import CacheEntry
from ..proxy.proxy import ProxyCosts
from ..server.sitelist import InvalidationTable
from ..sim import Callback, Event, Simulator

__all__ = ["ParentProxy"]

#: Pseudo client id under which the parent caches shared copies.
_SHARED = "*shared*"


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
        wire: WireCosts = DEFAULT_WIRE,
        retry_interval: float = 30.0,
    ) -> None:
        self.sim = sim
        self.network = network
        self.address = address
        self.server_address = server_address
        self.cache = cache if cache is not None else Cache()
        self.costs = costs
        self.wire = wire
        self.channel = ReliableChannel(network, retry_interval=retry_interval)
        #: Seconds an upstream fetch waits for its reply once delivered
        #: (the leaf proxy's default).
        self.reply_timeout = 30.0

        #: Per-URL interest: which (child proxy, real client) hold copies.
        self.interest = InvalidationTable()
        #: Every child proxy ever seen (for server-form forwarding).
        self._known_children: Set[str] = set()
        #: Upstream fetches waiting for a reply, by request msg_id; each
        #: waiter succeeds with the reply, or with ``None`` if it is lost.
        self._pending: Dict[int, Event] = {}
        #: Reply timers of the delivered requests in ``_pending``.
        self._timers: Dict[int, Callback] = {}
        #: In-flight upstream fetches by URL; later misses wait on these.
        self._inflight: Dict[str, Event] = {}

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
            self.sim.process(self._serve(message))
        elif isinstance(message, HttpResponse):
            timer = self._timers.pop(message.reply_to, None)
            if timer is not None:
                timer.cancel()
            self._end_wait(message.reply_to, message)
        elif isinstance(message, Invalidate):
            self.invalidations_received += 1
            self.sim.process(self._propagate(message))

    # ------------------------------------------------------------------
    # request path (child -> parent -> server)
    # ------------------------------------------------------------------

    def _serve(self, request: HttpRequest):
        sim = self.sim
        yield sim.sleep(self.costs.cpu_lookup)
        # Remember the child's interest so invalidations reach it.
        self.interest.register(
            request.url, request.client_id, proxy=request.src, now=sim.now
        )
        key = f"{request.url}@{_SHARED}"
        entry = self.cache.get(key, sim.now)

        if entry is None or entry.questionable:
            entry = yield from self._refresh(request.url, entry)
            if entry is None:
                return  # upstream unreachable; the child's timeout fires

        self.requests_served += 1
        if request.is_ims and entry.last_modified <= request.ims_timestamp:
            self.network.send(
                make_reply_304(request, entry.last_modified, wire=self.wire),
                wait=False,
            )
        else:
            yield sim.sleep(self.costs.cpu_serve_per_kb * entry.size / 1024.0)
            self.network.send(
                make_reply_200(
                    request,
                    body_bytes=entry.size,
                    last_modified=entry.last_modified,
                    wire=self.wire,
                ),
                wait=False,
            )

    def _refresh(self, url: str, stale_entry):
        """Fetch or revalidate a document from the upstream server.

        Returns the fresh cache entry, or ``None`` on failure.
        Concurrent refreshes of the same URL coalesce onto the first.
        """
        sim = self.sim
        inflight = self._inflight.get(url)
        if inflight is not None:
            self.coalesced_fetches += 1
            entry = yield inflight
            return entry
        gate = Event(sim)
        self._inflight[url] = gate
        entry = None
        try:
            entry = yield from self._refresh_upstream(url, stale_entry)
        finally:
            self._inflight.pop(url, None)
            if not gate.triggered:
                gate.succeed(entry)
        return entry

    def _refresh_upstream(self, url: str, stale_entry):
        sim = self.sim
        if stale_entry is not None and stale_entry.questionable:
            upstream = make_ims(
                self.address,
                self.server_address,
                url,
                client_id=self.address,
                ims_timestamp=stale_entry.last_modified,
                wire=self.wire,
            )
        else:
            upstream = make_get(
                self.address,
                self.server_address,
                url,
                client_id=self.address,
                wire=self.wire,
            )
        msg_id = upstream.msg_id
        waiter = Event(sim)
        self._pending[msg_id] = waiter
        try:
            yield self.network.send(upstream)
        except Unreachable:
            self._pending.pop(msg_id, None)
            return None
        if msg_id in self._pending:  # not ended by a crash or an early reply
            self._timers[msg_id] = sim.call_later(
                self.reply_timeout, self._reply_timed_out, msg_id
            )
        response = yield waiter
        if response is None:
            return None
        self.upstream_fetches += 1
        if response.status == NOT_MODIFIED:
            stale_entry.questionable = False
            stale_entry.fetched_at = sim.now
            return stale_entry
        entry = CacheEntry(
            url=url,
            client_id=_SHARED,
            size=response.body_bytes,
            last_modified=response.last_modified,
            fetched_at=sim.now,
        )
        self.cache.put(entry, sim.now)
        yield sim.sleep(self.costs.cpu_insert)
        return entry

    def _end_wait(self, msg_id: int, response) -> None:
        """Wake the fetch waiting on ``msg_id``; ``None`` means no reply."""
        waiter = self._pending.pop(msg_id, None)
        if waiter is not None:
            waiter.succeed(response)

    def _reply_timed_out(self, msg_id: int) -> None:
        del self._timers[msg_id]
        self._end_wait(msg_id, None)

    # ------------------------------------------------------------------
    # invalidation propagation (server -> parent -> children)
    # ------------------------------------------------------------------

    def _propagate(self, message: Invalidate):
        sim = self.sim
        if message.url is not None:
            # Drop our shared copy and invalidate interested children.
            self.cache.remove(f"{message.url}@{_SHARED}")
            entries = self.interest.note_modification(message.url, sim.now)
            for entry in entries:
                child_msg = make_invalidate_url(
                    self.address,
                    entry.proxy,
                    message.url,
                    entry.client_id,
                    wire=self.wire,
                )
                yield from self.channel.deliver(child_msg)
                self.invalidations_forwarded += 1
                self.interest.clear_after_invalidation(
                    message.url, [entry.client_id]
                )
        else:
            # Server recovered: everything we hold is questionable, and
            # every child must hear the same.
            self.cache.mark_all_questionable()
            for child in sorted(self._known_children):
                child_msg = make_invalidate_server(
                    self.address, child, server=message.server, wire=self.wire
                )
                yield from self.channel.deliver(child_msg)
                self.invalidations_forwarded += 1

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Parent host dies (interest table is volatile)."""
        self.up = False
        self.network.set_down(self.address)
        self.interest = InvalidationTable()
        # End every upstream wait, so no URL stays gated by a fetch whose
        # reply this host will never see.
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for waiter in self._pending.values():
            waiter.succeed(None)
        self._pending.clear()

    def recover(self):
        """Restart: our copies *and the children's* become questionable.

        While the parent was down its children missed every invalidation
        that should have flowed through it, so — exactly like the origin
        server's crash recovery — it sends an INVALIDATE carrying the
        server address to every child it has ever seen (the child log,
        like the server's site log, survives the crash on disk).
        Returns the recovery process.
        """
        self.up = True
        self.network.set_up(self.address)
        self.cache.mark_all_questionable()
        return self.sim.process(self._recovery_fanout())

    def _recovery_fanout(self):
        for child in sorted(self._known_children):
            message = make_invalidate_server(
                self.address, child, server=self.server_address, wire=self.wire
            )
            yield from self.channel.deliver(message)
            self.invalidations_forwarded += 1
