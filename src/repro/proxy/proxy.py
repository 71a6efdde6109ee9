"""The proxy cache (Harvest ``cached`` stand-in).

One :class:`ProxyCache` runs per pseudo-client workstation and serves the
real clients sharded onto it.  Per the paper's methodology:

* cached objects are keyed ``url@clientid`` so each real client has a
  private cache, and the real clientid travels with every GET so the
  accelerator can register the site;
* INVALIDATE-by-URL deletes the one client's copy; INVALIDATE-by-server
  marks every entry questionable (revalidate before use);
* a recovering proxy marks all its entries questionable.

The consistency *decision* (serve the cached copy vs. validate) is
delegated to a client policy object (see :mod:`repro.core.protocol`), so
the three approaches share every other code path — mirroring the paper's
single-Harvest-codebase methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..http import (
    NOT_MODIFIED,
    OK,
    HttpResponse,
    Invalidate,
    make_get,
    make_ims,
)
from ..http.wire import DEFAULT_WIRE, WireCosts
from ..net import Message, Network
from ..sim import Event, Simulator
from ..sim.core import URGENT
from .cache import Cache
from .entry import CacheEntry, entry_key

__all__ = ["ProxyCache", "ProxyCosts", "RequestOutcome"]


@dataclass(frozen=True)
class ProxyCosts:
    """CPU seconds charged per proxy operation (latency model only)."""

    cpu_lookup: float = 0.0008
    cpu_insert: float = 0.0010
    cpu_serve_per_kb: float = 0.00008


@dataclass
class RequestOutcome:
    """What happened to one client request (the metrics layer's input)."""

    url: str
    client_id: str
    started: float
    finished: float = 0.0
    had_cached_copy: bool = False
    served_from_cache: bool = False
    validated: bool = False
    fetched: bool = False
    status: Optional[int] = None
    transfer: bool = False
    body_bytes: int = 0
    #: An *unvalidated* serve of outdated content (the paper's stale
    #: hits).  Serves freshly confirmed by a 304 are fresh by definition
    #: — a write that lands between the validation and the serve has not
    #: completed with respect to this read.
    stale_served: bool = False
    #: How far behind the served copy was (served mtime vs current),
    #: seconds; 0 when fresh.
    staleness_age: float = 0.0
    #: Strong-consistency violation: the served copy's INVALIDATE had
    #: already been *delivered* to this proxy (the write was complete).
    #: Must never happen; guards against protocol races.
    violation: bool = False
    hit: bool = False
    failed: bool = False

    @property
    def latency(self) -> float:
        """Client-observed response time."""
        return self.finished - self.started


class _Leg:
    """A fill (no ``entry``) or validation waiting for its reply."""

    __slots__ = ("entry", "outcome", "on_done", "msg_id", "timer", "reply")

    def __init__(self, entry, outcome, on_done, msg_id: int) -> None:
        self.entry = entry
        self.outcome = outcome
        self.on_done = on_done
        self.msg_id = msg_id
        #: Reply timer, armed once the request has been delivered.
        self.timer = None
        #: A reply that overtook the send outcome (a duplicated request).
        self.reply = None


class ProxyCache:
    """A caching proxy node.

    Args:
        sim: simulator.
        network: fabric this proxy is attached to.
        address: this proxy's network address.
        server_address: the origin server site.
        policy: client consistency policy (see :mod:`repro.core.protocol`).
        cache: storage (shared by this proxy's real clients).
        oracle: optional ``url -> last_modified`` used *only for
            measurement* — it flags stale serves (the paper counts
            adaptive TTL's stale hits); it never influences behaviour.
        meter: optional :class:`repro.metering.HitMeter` — when present,
            unvalidated cache serves are counted and piggybacked on the
            next upstream request for the URL (Section 7 hit metering).
        reply_timeout: seconds after its delivery before an unanswered
            request fails.

    Two chaos hooks, both inert by default: :attr:`observer` (an object
    with ``on_serve(proxy, entry, outcome)``, called after every cached
    serve — the consistency auditor) and :attr:`clock_skew` (seconds added
    to this host's notion of wall-clock time when the *policy* judges a
    cached copy, modelling a drifting local clock against lease expiries
    and TTLs).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        server_address: str,
        policy,
        cache: Optional[Cache] = None,
        wire: WireCosts = DEFAULT_WIRE,
        costs: ProxyCosts = ProxyCosts(),
        oracle: Optional[Callable[[str], float]] = None,
        meter=None,
        reply_timeout: float = 30.0,
    ) -> None:
        self.sim = sim
        self.network = network
        self.address = address
        self.server_address = server_address
        self.policy = policy
        self.cache = cache if cache is not None else Cache()
        self.wire = wire
        self.costs = costs
        self.oracle = oracle
        self.meter = meter
        self.reply_timeout = reply_timeout

        #: Fills and validations waiting for a reply, by request msg_id.
        self._pending: Dict[int, _Leg] = {}
        #: INVALIDATEs that arrived before the copy they target (the
        #: fetch reply was still in flight).  The eventual insert is
        #: marked questionable so it revalidates before first reuse —
        #: AFS-style callback-race handling.
        self._tombstones: Dict[str, float] = {}
        #: Delivery time of the last INVALIDATE per cache key (write
        #: completion marker for the violation check).
        self._last_invalidated: Dict[str, float] = {}
        self.invalidations_received = 0
        #: Individual (url, client) invalidations that arrived inside
        #: batched INVALIDATE messages (sharded accelerator tier).
        self.batched_invalidations_received = 0
        self.piggyback_copies_removed = 0
        self.server_invalidations_received = 0
        self.questionable_validations = 0
        self.failed_requests = 0
        self.up = True
        self.observer = None
        self.clock_skew = 0.0
        network.register(address, self._receive)

    def publish_metrics(self, registry, **labels) -> None:
        """Publish this proxy's counters into a metrics registry.

        One ``proxy_*`` counter per quantity, labelled with this proxy's
        ``site`` address plus any caller-supplied ``labels`` (typically
        ``protocol=``).  Cache occupancy is published as gauges.
        """
        site = self.address
        for name, value in (
            ("proxy_invalidations_received", self.invalidations_received),
            ("proxy_server_invalidations_received",
             self.server_invalidations_received),
            ("proxy_piggyback_copies_removed", self.piggyback_copies_removed),
            ("proxy_questionable_validations", self.questionable_validations),
            ("proxy_failed_requests", self.failed_requests),
        ):
            registry.counter(name, site=site, **labels).inc(value)
        if self.batched_invalidations_received:
            registry.counter(
                "proxy_batched_invalidations_received", site=site, **labels
            ).inc(self.batched_invalidations_received)
        registry.gauge("proxy_cache_entries", site=site, **labels).set(
            len(self.cache)
        )
        registry.gauge("proxy_cache_bytes", site=site, **labels).set(
            self.cache.used_bytes
        )

    # ------------------------------------------------------------------
    # network receive path
    # ------------------------------------------------------------------

    def _receive(self, message: Message) -> None:
        if not self.up:
            return
        if isinstance(message, HttpResponse):
            if message.piggyback_invalidations:
                # PSI extension: the reply names documents modified since
                # our last contact; drop every client's copy of each.
                for url in message.piggyback_invalidations:
                    self.piggyback_copies_removed += self.cache.remove_url(url)
            # No leg: the request timed out or a crash forgot it.
            leg = self._pending.pop(message.reply_to, None)
            if leg is not None:
                if leg.timer is None:
                    leg.reply = message  # _on_sent applies it
                else:
                    leg.timer.cancel()
                    self._on_reply(leg, message)
        elif isinstance(message, Invalidate):
            self._handle_invalidate(message)

    def _handle_invalidate(self, message: Invalidate) -> None:
        if message.pairs is not None:
            # Batched form: one message coalescing several documents'
            # invalidations (the sharded accelerator tier).  Each pair is
            # processed exactly like a url-form INVALIDATE.
            for url, client_ids in message.pairs:
                for client_id in client_ids:
                    key = entry_key(url, client_id)
                    if self.cache.remove(key) == 0:
                        self._tombstones[key] = self.sim.now
                    self._last_invalidated[key] = self.sim.now
            self.invalidations_received += 1
            self.batched_invalidations_received += sum(
                len(cids) for _url, cids in message.pairs
            )
        elif message.url is not None:
            # Delete the targeted clients' copies; if one is not cached,
            # the invalidation may have overtaken an in-flight fetch
            # reply — tombstone the key so the eventual insert
            # revalidates.  (The multicast form covers several clients.)
            for client_id in message.target_clients:
                key = entry_key(message.url, client_id)
                if self.cache.remove(key) == 0:
                    self._tombstones[key] = self.sim.now
                self._last_invalidated[key] = self.sim.now
            self.invalidations_received += 1
        else:
            # Server-address form: everything from that server becomes
            # questionable (we model a single origin server per fabric).
            self.cache.mark_all_questionable()
            self.server_invalidations_received += 1

    # ------------------------------------------------------------------
    # client request path
    # ------------------------------------------------------------------

    def submit(self, client_id: str, url: str, on_done) -> None:
        """Run one browser request; ``on_done(outcome)`` ends it.

        The lookup runs ``cpu_lookup`` seconds from now on a pooled
        callback entry.  A cache hit pays the serve delay on a second
        one; a request to a down proxy fails at lookup time.  A fill or
        validation sends its GET or IMS from the lookup callback, arms the
        reply timer when the request is delivered, applies the reply as it
        arrives and pays the insert or serve delay on one more callback
        before ``on_done``.  A refused send fails ``connect_timeout`` after
        it, a missing reply ``reply_timeout`` after the delivery.  This is
        the only request route, so the auditor (:attr:`observer`), the hit
        meter and an event tracer all see every request.
        """
        outcome = RequestOutcome(url=url, client_id=client_id, started=self.sim.now)
        self.sim.call_later(self.costs.cpu_lookup, self._on_lookup, outcome, on_done)

    def request(self, client_id: str, url: str):
        """Generator adapter over :meth:`submit` for ``yield from`` callers::

            outcome = yield from proxy.request("client-7", "/doc")
        """
        wake = Event(self.sim)
        self.submit(client_id, url, lambda outcome: wake.succeed(outcome, URGENT))
        return (yield wake)

    def _lookup(self, client_id: str, url: str):
        """Post-lookup-delay decision: ``(entry, action)``.

        ``action`` is ``"serve"``, ``"validate"``, ``"fill"`` or
        ``"down"``; ``entry`` is the cached copy (``None`` for fill/down).
        """
        if not self.up:
            # A dead host serves nobody; its browsers see the outage.
            return None, "down"
        entry = self.cache.get(entry_key(url, client_id), self.sim.now)
        if entry is None:
            return None, "fill"
        if entry.questionable:
            return entry, "validate"
        # The policy judges freshness on the host's own clock, which may
        # be skewed (chaos fault): lease/TTL expiry shifts by clock_skew
        # on this host.
        action = self.policy.action(entry, self.sim.now + self.clock_skew)
        if action not in ("serve", "validate"):
            raise ValueError(f"policy returned unknown action {action!r}")
        return entry, action

    def _on_lookup(self, outcome: RequestOutcome, on_done) -> None:
        entry, action = self._lookup(outcome.client_id, outcome.url)
        outcome.had_cached_copy = entry is not None
        if action == "serve":
            self.sim.call_later(
                self.serve_delay(entry), self._on_served, entry, outcome, on_done
            )
        elif action == "down":
            self._fail(outcome, on_done)
        else:
            self._send(entry, outcome, on_done)

    def _on_served(self, entry: CacheEntry, outcome: RequestOutcome, on_done) -> None:
        self._complete_serve(entry, outcome)
        on_done(self._complete(outcome))

    def _finish(self, outcome: RequestOutcome, on_done) -> None:
        on_done(self._complete(outcome))

    def _fail(self, outcome: RequestOutcome, on_done) -> None:
        outcome.failed = True
        self.failed_requests += 1
        on_done(self._complete(outcome))

    def _complete(self, outcome: RequestOutcome) -> RequestOutcome:
        """Request epilogue shared by every way a request ends."""
        outcome.finished = self.sim.now
        outcome.hit = (not outcome.failed) and self.policy.is_hit(outcome)
        if (
            self.meter is not None
            and outcome.served_from_cache
            and not outcome.validated
        ):
            # Locally-served hit the origin never saw: meter it for the
            # next piggybacked report.
            self.meter.record(outcome.url)
        return outcome

    def serve_delay(self, entry: CacheEntry) -> float:
        """CPU seconds to push a cached copy to the browser."""
        return self.costs.cpu_serve_per_kb * entry.size / 1024.0

    def _complete_serve(self, entry: CacheEntry, outcome: RequestOutcome) -> None:
        outcome.served_from_cache = True
        outcome.body_bytes = entry.size
        if self.oracle is not None and not outcome.validated:
            current = self.oracle(entry.url)
            if current > entry.last_modified:
                outcome.stale_served = True
                outcome.staleness_age = current - entry.last_modified
        # A copy fetched before its own invalidation was delivered must
        # never be served afterwards.
        outcome.violation = entry.fetched_at <= self._last_invalidated.get(
            entry.key, float("-inf")
        )
        if self.observer is not None:
            self.observer.on_serve(self, entry, outcome)

    def _send(self, entry, outcome: RequestOutcome, on_done) -> None:
        """Send the GET of a fill (no ``entry``) or the IMS of a validation."""
        if entry is None:
            request = make_get(
                self.address,
                self.server_address,
                outcome.url,
                client_id=outcome.client_id,
                wire=self.wire,
                want_lease=getattr(self.policy, "want_lease_get", False),
            )
            outcome.fetched = True
        else:
            if entry.questionable:
                self.questionable_validations += 1
            request = make_ims(
                self.address,
                self.server_address,
                entry.url,
                client_id=entry.client_id,
                ims_timestamp=entry.last_modified,
                wire=self.wire,
                want_lease=getattr(self.policy, "want_lease_ims", False),
            )
            outcome.validated = True
        if self.meter is not None:
            request.reported_hits = self.meter.take(outcome.url)
        leg = _Leg(entry, outcome, on_done, request.msg_id)
        self._pending[request.msg_id] = leg
        self.network.send(request).callbacks.append(
            lambda sent: self._on_sent(leg, sent)
        )

    def _on_sent(self, leg: _Leg, sent: Event) -> None:
        """The request was delivered, or refused after the connect timeout."""
        if not sent.ok:
            self._pending.pop(leg.msg_id, None)
            self._fail(leg.outcome, leg.on_done)
        elif leg.reply is not None:
            self._on_reply(leg, leg.reply)
        else:
            # Holds the leg itself, not its msg_id: a crash empties
            # _pending, yet the request still fails when this fires.
            leg.timer = self.sim.call_later(
                self.reply_timeout, self._on_reply_timeout, leg
            )

    def _on_reply_timeout(self, leg: _Leg) -> None:
        self._pending.pop(leg.msg_id, None)
        self._fail(leg.outcome, leg.on_done)

    def _on_reply(self, leg: _Leg, response: HttpResponse) -> None:
        outcome = leg.outcome
        entry = leg.entry
        outcome.status = response.status
        if entry is not None and response.status == NOT_MODIFIED:
            entry.questionable = False
            # The server just confirmed freshness: the copy is as good as
            # one fetched now (resets the violation baseline too).
            entry.fetched_at = self.sim.now
            if response.lease_expires is not None:
                entry.lease_expires = response.lease_expires
            self.policy.on_validated(entry, response, self.sim.now)
            # TTL policies extend entry.expires in place: tell the cache
            # so expired-first replacement keeps seeing this entry.
            self.cache.note_expiry_update(entry.key)
            self.sim.call_later(
                self.serve_delay(entry), self._on_served, entry, outcome, leg.on_done
            )
            return
        if entry is not None:
            # New version: replace the cached copy and serve the new body.
            self.cache.remove(entry.key)
        self._insert_from_response(response, outcome.client_id)
        outcome.transfer = True
        outcome.body_bytes = response.body_bytes
        self.sim.call_later(self.costs.cpu_insert, self._finish, outcome, leg.on_done)

    def _insert_from_response(self, response: HttpResponse, client_id: str) -> None:
        if response.status != OK:
            raise ValueError(f"cannot cache a {response.status} reply")
        entry = CacheEntry(
            url=response.url,
            client_id=client_id,
            size=response.body_bytes,
            last_modified=response.last_modified,
            fetched_at=self.sim.now,
        )
        if response.lease_expires is not None:
            entry.lease_expires = response.lease_expires
        if self._tombstones.pop(entry.key, None) is not None:
            # An INVALIDATE raced ahead of this reply: don't trust the
            # copy until it has been revalidated.
            entry.questionable = True
        self.policy.on_fill(entry, response, self.sim.now)
        self.cache.put(entry, self.sim.now)

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Proxy host dies; cached objects survive on disk (Harvest)."""
        self.up = False
        self.network.set_down(self.address)
        self._pending.clear()

    def recover(self, cold: bool = False) -> int:
        """Restart; all entries become questionable (Section 4).

        A *warm* restart keeps the on-disk cache (Harvest's behaviour); a
        *cold* one comes back with an empty cache — the disk was replaced
        or the store wiped.  Returns how many entries were flagged
        questionable (0 for cold).
        """
        self.up = True
        self.network.set_up(self.address)
        if cold:
            self.cache.clear()
            self._tombstones.clear()
            return 0
        return self.cache.mark_all_questionable()
