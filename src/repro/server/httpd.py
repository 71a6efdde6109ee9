"""The pseudo-server workstation: HTTPD + accelerator on one host.

One :class:`ServerSite` bundles what the paper runs on its pseudo-server
SPARC-20: the NCSA HTTPD (document service, request logging) and the
Harvest accelerator (site tracking, modification detection, INVALIDATE
fan-out), sharing one CPU and one disk.  The sharded accelerator tier
(:mod:`repro.server.cluster`) is a set of these, one per shard.

Key fidelity points, all from Section 4 of the paper:

* Every client access registers the site — the accelerator does not rely
  on the client saying whether it caches.
* Modification detection supports both the "notify" (check-in) path and
  the browser-based path (:meth:`ServerSite.check_document`).
* With ``blocking_send`` (the prototype's behaviour), the accelerator
  stops accepting requests until all INVALIDATEs for a change are sent —
  the cause of the paper's worst-case latencies.
* Crash recovery: volatile site lists are lost; a persistent log of every
  site ever seen is replayed as INVALIDATE-by-server-address messages.
* Invalidations travel over the reliable channel (TCP + periodic retry).

A request runs as a chain of callbacks, one per stage it holds the CPU
or the disk for (one :meth:`repro.sim.Resource.use` call): accept,
parse, the site-log write on a site's first contact, the document read,
the reply and the request-log write.  A free resource is taken at once,
a busy one queues FIFO with the INVALIDATE senders.

There is one INVALIDATE fan-out.  A modification opens one obligation
per registered site, stamped with the time it opened, then groups the
sites as ``(proxy, pairs)`` in one of three ways: one message per site
(the paper's form), one per proxy covering its clients (``multicast``),
or one per proxy's batch buffer, flushed when ``batch_max`` pairs
accumulate or ``batch_window`` seconds after the buffer opened.  Every
INVALIDATE — those groups, the flush of abandoned ones on a proxy's next
contact and the recovery broadcast — is a step of one callback chain,
:meth:`ServerSite._run`, and closes entries and obligations in
:meth:`ServerSite._discharge`.  A delivered INVALIDATE covers only the
copies fetched up to its obligation's open time: a site that registered
again after that keeps its entry, so the next modification invalidates
it too.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Set, Tuple

from ..http import (
    HttpRequest,
    Invalidate,
    make_invalidate,
    make_invalidate_server,
    make_reply_200,
    make_reply_304,
)
from ..http.wire import PIGGYBACK_PER_URL_BYTES
from ..metering import UsageLedger
from ..net import Delivery, Message, Network, ReliableChannel
from ..sim import Claim, Resource, Simulator
from .accelerator import AcceleratorConfig
from .costs import DEFAULT_SERVER_COSTS, ServerCosts
from .filestore import FileStore
from .sitelist import InvalidationTable, KnownSitesLog

__all__ = ["ServerSite"]

#: ``(url, client_id) -> when that obligation opened``: the obligations
#: one INVALIDATE discharges, or that are still owed.
Pairs = Dict[Tuple[str, str], float]

#: The key of an owed INVALIDATE-by-server among the pairs owed to a
#: proxy (its value is unused); the flush sends it before the pairs.
_BY_SERVER = (None, None)


class _Run:
    """One run of :meth:`ServerSite._run`: its steps and where it is."""

    __slots__ = ("steps", "index", "on_end", "args", "hold", "delivery")

    def __init__(self, steps: list, on_end, args: tuple) -> None:
        self.steps = steps
        self.index = 0  # the step being sent
        self.on_end = on_end
        self.args = args
        self.hold: Optional[Claim] = None  # a blocking run's accept lock
        self.delivery: Optional[Delivery] = None  # the step on the channel


class ServerSite:
    """The origin server host (HTTPD + accelerator + CPU + disk)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        filestore: FileStore,
        accel: Optional[AcceleratorConfig] = None,
        costs: ServerCosts = DEFAULT_SERVER_COSTS,
        batch_window: float = 0.0,
        batch_max: int = 0,
    ) -> None:
        if batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        if batch_max < 0:
            raise ValueError("batch_max must be non-negative")
        self.sim = sim
        self.network = network
        self.address = address
        self.filestore = filestore
        self.accel = accel or AcceleratorConfig()
        self.costs = costs
        self.batch_window = batch_window
        self.batch_max = batch_max

        #: Single-CPU and single-disk FIFO resources (SPARC-20 model).
        self.cpu = Resource(sim)
        self.disk = Resource(sim)
        #: The accept loop: requests acquire it briefly to be admitted; a
        #: blocking invalidation send holds it for the whole fan-out.
        self.accept_lock = Resource(sim)

        self.table = InvalidationTable()
        self.known_sites = KnownSitesLog()
        #: Section 7 hit metering: direct requests plus proxy-reported
        #: cache hits, per document.
        self.ledger = UsageLedger()
        self.channel = ReliableChannel(
            network,
            retry_interval=self.accel.retry_interval,
            max_retries=self.accel.max_retries,
        )

        #: Consistency obligations ledger.  An obligation is opened the
        #: instant a modification (or a recovery) makes a cached copy
        #: stale, and closed only after the corresponding INVALIDATE is
        #: *delivered*.  The chaos auditor treats staleness covered by an
        #: open obligation as an allowed in-flight window, not a violation.
        #: A later modification re-opens the obligation at its own time.
        self._pending_inval: Pairs = {}
        self._pending_server_inval: Set[str] = set()
        #: Abandoned deliveries (``max_retries`` exhausted) queued for
        #: re-send on the target proxy's next contact with the server,
        #: ``proxy -> pairs``; the key :data:`_BY_SERVER` among a proxy's
        #: pairs stands for an INVALIDATE-by-server.  A proxy is a key
        #: only while something is owed to it.
        self._owed: Dict[str, Pairs] = {}
        #: INVALIDATE runs in flight, in start order; a crash ends them.
        self._runs: Dict[_Run, None] = {}
        #: Operator-configured fleet membership: every proxy host that may
        #: front this server.  Used as the recovery broadcast target when a
        #: crash also destroys the persistent known-sites log.
        self.proxy_roster: Set[str] = set()
        self._sitelog_lost = False

        #: Last modification time the accelerator has *seen* per URL
        #: (browser-based detection compares against the file system).
        self._seen_mtime: Dict[str, float] = {}
        #: Piggyback extension: time-ordered (time, url) modification log
        #: and each proxy's last-contact time.
        self._mod_log: List[tuple] = []
        self._last_contact: Dict[str, float] = {}
        self.piggybacked_urls = 0
        #: When set (by an adaptive-lease controller), overrides the
        #: static lease durations in :attr:`accel` for every request.
        self.lease_override: Optional[float] = None

        # -- counters surfaced to the metrics layer --
        self.requests_handled = 0
        self.replies_200 = 0
        self.replies_304 = 0
        self.invalidations_sent = 0
        self.disk_reads = 0
        self.disk_writes = 0
        self.invalidations_abandoned = 0
        #: Per-proxy batch buffers, ``proxy -> [(url, client_id, opened)]``.
        self._batch_buffers: Dict[str, List[Tuple[str, str, float]]] = {}
        #: Proxies with a flush timer in flight (timers are not
        #: cancelled; a fired timer on an empty buffer is a no-op).
        self._batch_timer_armed: Set[str] = set()
        #: Delivered batch-buffer flushes and the (url, client) pairs
        #: they carried.
        self.batches_sent = 0
        self.batched_invalidations = 0
        #: Wall-clock seconds each modification's INVALIDATE fan-out took.
        self.invalidation_times: List[float] = []
        #: Observability hook: ``fn(url, started, ended, num_entries)``
        #: called after each INVALIDATE fan-out completes (see
        #: :meth:`repro.obs.Observation.fanout_listener`).  The experiment
        #: runner sets it on every site it builds, each shard of a
        #: cluster included, when the replay is observed.  ``None`` (the
        #: default) costs nothing.
        self.fanout_listener = None

        self.up = True
        network.register(address, self._receive)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------

    def _receive(self, message: Message) -> None:
        if not self.up or not isinstance(message, HttpRequest):
            return  # a crashed host (the network normally blocks this)
        self.note_contact(message.src)
        # Admission: the accept loop is a choke point shared with blocking
        # invalidation sends.
        self.accept_lock.acquire(self._accept, message)

    def _accept(self, admit: Claim, request: HttpRequest) -> None:
        self.cpu.use(self.costs.cpu_accept, self._parse, admit, request)

    def _parse(self, admit: Claim, request: HttpRequest) -> None:
        # Parse + accelerator bookkeeping.
        self.accept_lock.release(admit)
        cost = self.costs.cpu_parse
        if self.accel.invalidation:
            cost += self.costs.cpu_sitelist
        self.cpu.use(cost, self._register, request)

    def _register(self, request: HttpRequest) -> None:
        self.ledger.record_request(request.url)
        if request.reported_hits:
            self.ledger.record_reported_hits(request.url, request.reported_hits)
        lease_expires = None
        if self.accel.invalidation:
            lease_expires = self._register_site(request)
            # Persistent every-site log: disk write only on first sight.
            if self.known_sites.record(request.client_id, request.src):
                cost = self.costs.disk_sitelog_write
                self.disk.use(cost, self._fetch, request, lease_expires, 1)
                return
        self._fetch(request, lease_expires, 0)

    def _fetch(self, request: HttpRequest, lease_expires, disk_writes: int) -> None:
        self.disk_writes += disk_writes
        doc = self.filestore.get(request.url)
        # Remember when each served document was last seen modified, for
        # browser-based change detection to compare against.
        self._seen_mtime.setdefault(request.url, doc.last_modified)
        if request.ims_timestamp is None or doc.last_modified > request.ims_timestamp:
            # Full transfer: read the document from disk, build the reply.
            cost = self.costs.disk_fetch(doc.size)
            self.disk.use(cost, self._read, request, lease_expires, doc)
        else:
            cost = self.costs.cpu_reply(0)
            self.cpu.use(cost, self._reply, request, lease_expires, doc, False)

    def _read(self, request: HttpRequest, lease_expires, doc) -> None:
        self.disk_reads += 1
        cost = self.costs.cpu_reply(doc.size)
        self.cpu.use(cost, self._reply, request, lease_expires, doc, True)

    def _reply(self, request: HttpRequest, lease_expires, doc, modified: bool) -> None:
        if modified:
            reply = make_reply_200(
                request, body_bytes=doc.size, last_modified=doc.last_modified,
                lease_expires=lease_expires,
            )
            self.replies_200 += 1
        else:
            reply = make_reply_304(
                request, last_modified=doc.last_modified, lease_expires=lease_expires,
            )
            self.replies_304 += 1
        if self.accel.piggyback:
            urls = self._piggyback_for(request.src, exclude_url=request.url)
            if urls:
                reply.piggyback_invalidations = urls
                reply.size += len(urls) * PIGGYBACK_PER_URL_BYTES
                self.piggybacked_urls += len(urls)
        # All three approaches log incoming requests (paper Section 5.2).
        self.disk.use(self.costs.disk_log_write, self._send_reply, reply)

    def _send_reply(self, reply: Message) -> None:
        self.disk_writes += 1
        self.requests_handled += 1
        self.network.send(reply)

    def _register_site(self, request: HttpRequest) -> Optional[float]:
        """Record the requesting site in the invalidation table.

        Returns the lease expiry to advertise in the reply (or ``None``
        when the protocol does not grant explicit leases).
        """
        now = self.sim.now
        if self.lease_override is not None:
            duration = self.lease_override
        else:
            duration = self.accel.lease_for(request.is_ims)
        if self.accel.grant_leases:
            # Lazy lease reclamation: expired entries on this document's
            # list are dropped whenever it is touched (Section 6 — "the
            # server only needs to remember clients whose leases have not
            # expired").  The clock-skew grace keeps recently-expired
            # entries around: a client whose clock lags may still honour
            # the lease, so it must still be invalidated.
            cutoff = now - self.accel.lease_grace
            self.table.purge_url(request.url, cutoff)
            # Amortized sweep over the rest of the table: without it, a
            # site that never reconnects keeps its expired entries (and
            # its document's list object) alive for the whole run.
            self.table.evict_round(cutoff)
        # Zero-duration leases (the two-tier first tier) normally skip
        # registration; under a clock-skew grace the server still remembers
        # the site for the grace window, because a client whose clock runs
        # behind may briefly act as if the lease were live.
        if duration > 0 or self.accel.lease_grace > 0:
            expiry = math.inf if math.isinf(duration) else now + duration
            self.table.register(
                request.url, request.client_id, proxy=request.src, now=now,
                lease_expires=expiry,
            )
        if not self.accel.grant_leases or math.isinf(duration):
            return None
        return now + duration

    def _piggyback_for(self, proxy: str, exclude_url: str):
        """URLs modified since ``proxy``'s last contact (PSI extension).

        Updates the proxy's last-contact time; returns ``None`` on first
        contact or when nothing changed.
        """
        now = self.sim.now
        since = self._last_contact.get(proxy)
        self._last_contact[proxy] = now
        if since is None or not self._mod_log:
            return None
        start = bisect.bisect_right(self._mod_log, (since, "￿"))
        seen = {}
        for _t, url in self._mod_log[start:]:
            if url != exclude_url:
                seen[url] = None
            if len(seen) >= self.accel.piggyback_cap:
                break
        return tuple(seen) or None

    # ------------------------------------------------------------------
    # modification detection + invalidation fan-out
    # ------------------------------------------------------------------

    def check_in(self, url: str) -> None:
        """The "notify" path: a check-in utility reports a change."""
        if not self.up:
            return  # the check-in utility runs on the crashed host
        self._seen_mtime[url] = self.filestore.get(url).last_modified
        if self.accel.piggyback:
            self._mod_log.append((self.sim.now, url))
        if self.accel.invalidation:
            self._start_invalidation(url)

    def check_document(self, url: str) -> bool:
        """The browser-based path: compare the file's mtime with the last
        one the accelerator saw; returns True when a change was detected
        (and, under invalidation, a fan-out was started)."""
        if not self.up:
            return False
        current = self.filestore.get(url).last_modified
        seen = self._seen_mtime.get(url)
        if seen is None:
            # Never served: nobody can be caching it, so nothing to do
            # beyond remembering the current mtime.
            self._seen_mtime[url] = current
            return False
        if current <= seen:
            return False
        self._seen_mtime[url] = current
        if self.accel.piggyback:
            self._mod_log.append((self.sim.now, url))
        if self.accel.invalidation:
            self._start_invalidation(url)
        return True

    def _start_invalidation(self, url: str) -> None:
        """Open the consistency obligations for a change, then fan out.

        The obligations are registered synchronously — at the instant the
        modification is detected — so the auditor can tell "stale because
        the INVALIDATE is still in flight" (allowed) apart from "stale and
        nobody owes this proxy anything" (a violation).  Batching delays
        the send, not the debt.
        """
        now = self.sim.now
        entries = self.table.note_modification(url, now - self.accel.lease_grace)
        for entry in entries:
            self._pending_inval[(url, entry.client_id)] = now
        if self.batch_window or self.batch_max:
            for entry in entries:
                self._enqueue(entry.proxy, url, entry.client_id)
            return
        if self.accel.multicast:
            groups: Dict[str, Pairs] = {}
            for entry in entries:
                groups.setdefault(entry.proxy, {})[(url, entry.client_id)] = now
            grouped = list(groups.items())
        else:
            grouped = [
                (entry.proxy, {(url, entry.client_id): now}) for entry in entries
            ]
        self._send_invalidations(url, now, grouped)

    def _enqueue(self, proxy: str, url: str, client_id: str) -> None:
        buffer = self._batch_buffers.setdefault(proxy, [])
        buffer.append((url, client_id, self.sim.now))
        if self.batch_max and len(buffer) >= self.batch_max:
            self._flush_batch(proxy)
        elif proxy not in self._batch_timer_armed:
            self._batch_timer_armed.add(proxy)
            self.sim.call_later(self.batch_window, self._batch_timer_fired, proxy)

    def _batch_timer_fired(self, proxy: str) -> None:
        self._batch_timer_armed.discard(proxy)
        if self._batch_buffers.get(proxy):
            self._flush_batch(proxy)

    def _flush_batch(self, proxy: str) -> None:
        # Group the buffer by URL and deduplicate clients: two
        # modifications of one document inside a window need only one
        # invalidation, which discharges the later obligation.
        buffer = self._batch_buffers.pop(proxy)
        by_url: Dict[str, Dict[str, float]] = {}
        for url, client_id, opened in buffer:
            by_url.setdefault(url, {})[client_id] = opened
        pairs = {
            (url, cid): opened
            for url, cids in by_url.items()
            for cid, opened in cids.items()
        }
        # The fan-out is timed from when the buffer opened.
        url, _client_id, started = buffer[0]
        self._send_invalidations(url, started, [(proxy, pairs)])

    def _send_invalidations(self, url: str, started: float, groups) -> None:
        """Send one INVALIDATE per ``(proxy, pairs)`` group, serially.

        A group is one site-list entry (the per-site form), one proxy's
        clients (``multicast``) or one proxy's batch buffer.  With
        ``blocking_send`` the accept lock is held for the whole fan-out.
        A group whose delivery is abandoned (``max_retries`` exhausted)
        is queued for re-send on the proxy's next contact — its
        obligations stay open either way.
        """
        steps = [
            (self._invalidate_message(proxy, pairs), pairs, False)
            for proxy, pairs in groups
        ]
        entries = sum(len(pairs) for _proxy, pairs in groups)
        blocking = self.accel.blocking_send
        self._run(steps, blocking, self._fanout_done, url, started, entries)

    def _fanout_done(self, url: str, started: float, entries: int) -> None:
        self.invalidation_times.append(self.sim.now - started)
        if self.fanout_listener is not None:
            self.fanout_listener(url, started, self.sim.now, entries)

    def _invalidate_message(self, proxy: str, pairs: Pairs) -> Invalidate:
        """Build the INVALIDATE for one fan-out group, its clients by URL."""
        by_url: Dict[str, List[str]] = {}
        for url, cid in pairs:
            by_url.setdefault(url, []).append(cid)
        return make_invalidate(self.address, proxy, by_url.items())

    def _server_message(self, proxy: str) -> Invalidate:
        return make_invalidate_server(self.address, proxy, server=self.address)

    def _run(self, steps: list, blocking: bool, on_end, *args) -> None:
        """Send ``steps`` one after another, then call ``on_end(*args)``.

        A step ``(message, pairs, resend)`` is a CPU stage for the
        message, then its delivery over the reliable channel (TCP plus
        periodic retry); ``resend`` is true when the step re-sends an
        abandoned INVALIDATE on contact.  :meth:`_discharge` closes what
        a delivered step covers; :meth:`_requeue` records how one that
        ``max_retries`` gave up on is still owed.  A ``blocking`` run
        holds the accept lock throughout.  :meth:`crash` ends every run.
        """
        run = _Run(steps, on_end, args)
        self._runs[run] = None
        if blocking:
            run.hold = self.accept_lock.acquire(self._step, run)
        else:
            self._step(None, run)

    def _step(self, hold: Optional[Claim], run: _Run) -> None:
        if run not in self._runs:
            return  # ended by a crash while waiting for the accept lock
        if hold is not None:
            run.hold = hold
        if run.index < len(run.steps):
            self.cpu.use(self.costs.cpu_invalidate_msg, self._send, run)
            return
        del self._runs[run]
        if run.hold is not None:
            self.accept_lock.release(run.hold)
        if run.on_end is not None:
            run.on_end(*run.args)

    def _send(self, run: _Run) -> None:
        if run in self._runs:  # not ended by a crash during the CPU stage
            message = run.steps[run.index][0]
            run.delivery = self.channel.deliver(message, self._on_sent, run)

    def _on_sent(self, delivered: bool, run: _Run) -> None:
        message, pairs, resend = run.steps[run.index]
        run.index += 1
        if delivered:
            self._discharge(message, pairs, resend)
        else:
            self._requeue(message, pairs, resend)
        self._step(None, run)

    def _discharge(self, message: Invalidate, pairs: Pairs, resend: bool) -> None:
        """Count a delivered INVALIDATE and close what it covers.

        The only place entries and obligations close, and only those known
        when each obligation opened: a newer registration is kept, and an
        obligation a later modification re-opened stays open.  Under
        batching every first send of pairs is a batch-buffer flush; the
        re-send of an abandoned batch goes pair by pair and is no batch.
        """
        self.invalidations_sent += 1
        if message.server is not None:
            self._pending_server_inval.discard(message.dst)
        elif (self.batch_window or self.batch_max) and not resend:
            self.batches_sent += 1
            self.batched_invalidations += len(pairs)
        for (url, client_id), opened in pairs.items():
            self.table.clear_after_invalidation(url, [client_id], opened)
            if self._pending_inval.get((url, client_id), math.inf) <= opened:
                del self._pending_inval[(url, client_id)]

    def _requeue(self, message: Invalidate, pairs: Pairs, resend: bool) -> None:
        """Owe an undelivered INVALIDATE to its proxy's next contact.

        Keeps the site-list entries and the pending obligations: the
        copies out there are still stale and still owed an invalidation,
        just via a different channel, and ``_owed`` records which.  Only
        a first send counts as abandoned; a failed re-send is owed again.
        """
        if not resend:
            self.invalidations_abandoned += len(pairs) or 1  # by-server: once
        owed = self._owed.setdefault(message.dst, {})
        if message.server is not None:
            owed[_BY_SERVER] = 0.0
        else:
            owed.update(pairs)

    def note_contact(self, proxy: str) -> None:
        """Re-send the abandoned INVALIDATEs owed to ``proxy``, if any.

        A contact is the retry opportunity: the proxy is provably
        reachable right now.  The flush claims the CPU at once, so it
        goes before the contacting request's accept stage.
        """
        owed = self._owed.pop(proxy, None)
        if owed is None:
            return  # the common case: nothing owed
        steps = []
        if owed.pop(_BY_SERVER, None) is not None:
            steps.append((self._server_message(proxy), {}, True))
        for (url, cid), opened in owed.items():
            message = make_invalidate(self.address, proxy, ((url, (cid,)),))
            steps.append((message, {(url, cid): opened}, True))
        self._run(steps, False, None)

    # ------------------------------------------------------------------
    # consistency obligations (queried by the chaos auditor)
    # ------------------------------------------------------------------

    def write_pending(self, url: str, client_id: str) -> bool:
        """True while an INVALIDATE for ``(url, client_id)`` is still owed."""
        return (url, client_id) in self._pending_inval

    def recovery_pending(self, proxy: str) -> bool:
        """True while a post-crash INVALIDATE-by-server is owed to ``proxy``."""
        return proxy in self._pending_server_inval

    def change_pending_detection(self, url: str) -> bool:
        """True when the file changed but the accelerator has not seen it.

        Nonzero only under browser-based detection, where the window
        between the modification and the author's page view is an allowed
        staleness window (Section 4's second detection approach).
        """
        seen = self._seen_mtime.get(url)
        if seen is None:
            return False
        return self.filestore.get(url).last_modified > seen

    # ------------------------------------------------------------------
    # crash / recovery (Section 4 failure handling)
    # ------------------------------------------------------------------

    def crash(self, lose_sitelog: bool = False) -> None:
        """Kill the server site: volatile invalidation state is lost.

        With ``lose_sitelog`` the crash also destroys the *persistent*
        known-sites log (disk loss) — the worst case the paper's Section 4
        recovery story does not cover.  Recovery then falls back to
        broadcasting INVALIDATE-by-server to the operator-configured
        :attr:`proxy_roster`.
        """
        self.up = False
        self.network.set_down(self.address)
        self.table = InvalidationTable()
        self._seen_mtime.clear()
        # Open batch buffers and INVALIDATE runs die with the process; their
        # obligations stay open, and the recovery INVALIDATE-by-server
        # discharges them.
        self._batch_buffers.clear()
        for run in self._runs:
            if run.delivery is not None:
                run.delivery.cancel()
            if run.hold is not None:
                self.accept_lock.release(run.hold)
        self._runs.clear()
        if lose_sitelog:
            self.known_sites = KnownSitesLog()
            self._sitelog_lost = True

    def recover(self) -> None:
        """Restart and broadcast INVALIDATE-by-server to every known site.

        The persistent :class:`KnownSitesLog` survives the crash; every
        site in it receives an INVALIDATE carrying the server address,
        which makes proxies mark our documents questionable.  When the log
        was lost too, the :attr:`proxy_roster` is the broadcast target.
        The recovery obligations are opened synchronously, before the
        broadcast starts, so the auditor sees them immediately.
        """
        self.up = True
        self.network.set_up(self.address)
        targets = {proxy for _client_id, proxy in self.known_sites.all_sites()}
        if self._sitelog_lost:
            targets |= self.proxy_roster
            self._sitelog_lost = False
        self._pending_server_inval |= targets
        # One INVALIDATE-by-server per proxy host is enough: the proxy
        # marks every cached document from this server questionable.
        steps = [
            (self._server_message(proxy), {}, False)
            for proxy in sorted(targets)
        ]
        self._run(steps, False, None)
