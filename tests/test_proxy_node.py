"""Integration tests for the ProxyCache node with real protocols."""


import pytest

from repro.core import (
    adaptive_ttl,
    invalidation,
    lease_invalidation,
    poll_every_time,
    two_tier_lease,
)
from repro.net import FixedLatency, LinkFault, Network
from repro.proxy import Cache, ProxyCache
from repro.server import FileStore, ServerSite
from repro.sim import EventTracer, Simulator


def build(protocol, docs=None, cache_bytes=None, latency=0.001):
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(latency), connect_timeout=0.5)
    fs = FileStore.from_catalog(docs or {"/a": 1000, "/b": 2000})
    server = ServerSite(sim, net, "server", fs, accel=protocol.accelerator)
    cache = Cache(
        capacity_bytes=cache_bytes, expired_first=protocol.expired_first_cache
    )
    proxy = ProxyCache(
        sim,
        net,
        "proxy-0",
        "server",
        policy=protocol.client_policy,
        cache=cache,
        oracle=lambda url: fs.get(url).last_modified,
    )
    return sim, net, fs, server, proxy


def run_request(sim, proxy, client, url):
    outcomes = []
    proxy.submit(client, url, outcomes.append)
    sim.run()
    (outcome,) = outcomes
    return outcome


class TestMissAndHit:
    def test_first_request_is_a_miss_with_transfer(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.transfer
        assert not outcome.had_cached_copy
        assert not outcome.hit
        assert outcome.body_bytes == 1000
        assert outcome.latency > 0

    def test_private_caches_per_client(self):
        sim, net, fs, server, proxy = build(invalidation())
        run_request(sim, proxy, "c1", "/a")
        outcome = run_request(sim, proxy, "c2", "/a")
        # Different real client: cache miss despite shared proxy.
        assert not outcome.had_cached_copy
        assert outcome.transfer


class TestPolling:
    def test_hit_validates_and_serves_on_304(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        run_request(sim, proxy, "c1", "/a")
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.validated
        assert outcome.status == 304
        assert outcome.served_from_cache
        assert outcome.hit
        assert not outcome.stale_served

    def test_modified_document_transfers_but_counts_hit(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        run_request(sim, proxy, "c1", "/a")
        fs.modify("/a", now=sim.now + 1)
        sim.run(until=sim.now + 2)
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.validated
        assert outcome.status == 200
        assert outcome.transfer
        # Paper: polling hit counts include hits on stale documents.
        assert outcome.hit
        assert not outcome.stale_served  # user never saw the stale copy

    def test_never_serves_stale(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        for i in range(5):
            run_request(sim, proxy, "c1", "/a")
            fs.modify("/a", now=sim.now + 1)
            sim.run(until=sim.now + 2)
            outcome = run_request(sim, proxy, "c1", "/a")
            assert not outcome.stale_served


class TestAdaptiveTtl:
    def test_fresh_serve_without_server_contact(self):
        sim, net, fs, server, proxy = build(adaptive_ttl())
        # Age the document so it earns a decent TTL.
        fs.get("/a").last_modified = -86400.0
        run_request(sim, proxy, "c1", "/a")
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.served_from_cache
        assert not outcome.validated
        assert outcome.hit

    def test_expired_copy_validated(self):
        prot = adaptive_ttl(factor=0.2, min_ttl=0.0)
        sim, net, fs, server, proxy = build(prot)
        fs.get("/a").last_modified = -10.0  # tiny age -> tiny TTL
        run_request(sim, proxy, "c1", "/a")
        sim.run(until=sim.now + 100.0)
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.validated
        assert outcome.status == 304
        assert outcome.hit  # 304-refresh counts as hit

    def test_stale_hit_detected_by_oracle(self):
        sim, net, fs, server, proxy = build(adaptive_ttl())
        fs.get("/a").last_modified = -10 * 86400.0  # old -> long TTL
        run_request(sim, proxy, "c1", "/a")
        fs.modify("/a", now=sim.now + 1)
        sim.run(until=sim.now + 2)
        outcome = run_request(sim, proxy, "c1", "/a")
        # TTL still fresh, so the stale copy is served: a stale hit.
        assert outcome.served_from_cache
        assert outcome.stale_served


class TestInvalidation:
    def test_valid_copy_served_locally(self):
        sim, net, fs, server, proxy = build(invalidation())
        run_request(sim, proxy, "c1", "/a")
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.served_from_cache
        assert not outcome.validated
        assert outcome.hit

    def test_invalidate_deletes_copy_and_next_request_misses(self):
        sim, net, fs, server, proxy = build(invalidation())
        run_request(sim, proxy, "c1", "/a")
        fs.modify("/a", now=sim.now + 1)
        server.check_in("/a")
        sim.run()
        assert proxy.invalidations_received == 1
        outcome = run_request(sim, proxy, "c1", "/a")
        assert not outcome.had_cached_copy
        assert outcome.transfer
        assert not outcome.stale_served

    def test_strong_consistency_no_stale_serves(self):
        sim, net, fs, server, proxy = build(invalidation())
        for i in range(5):
            run_request(sim, proxy, "c1", "/a")
            fs.modify("/a", now=sim.now + 1)
            server.check_in("/a")
            sim.run()
            outcome = run_request(sim, proxy, "c1", "/a")
            assert not outcome.stale_served

    def test_unrelated_client_copy_unaffected(self):
        sim, net, fs, server, proxy = build(invalidation())
        run_request(sim, proxy, "c1", "/a")
        run_request(sim, proxy, "c1", "/b")
        fs.modify("/a", now=sim.now + 1)
        server.check_in("/a")
        sim.run()
        outcome = run_request(sim, proxy, "c1", "/b")
        assert outcome.served_from_cache


class TestLeases:
    def test_lease_expiry_forces_validation(self):
        prot = lease_invalidation(lease_duration=5.0)
        sim, net, fs, server, proxy = build(prot)
        run_request(sim, proxy, "c1", "/a")
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.served_from_cache and not outcome.validated
        sim.run(until=sim.now + 10.0)  # lease lapses
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.validated
        assert outcome.status == 304

    def test_validation_renews_lease(self):
        prot = lease_invalidation(lease_duration=5.0)
        sim, net, fs, server, proxy = build(prot)
        run_request(sim, proxy, "c1", "/a")
        sim.run(until=sim.now + 10.0)
        run_request(sim, proxy, "c1", "/a")  # IMS renews lease
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.served_from_cache and not outcome.validated

    def test_two_tier_first_get_not_registered_second_is(self):
        prot = two_tier_lease(lease_duration=100.0)
        sim, net, fs, server, proxy = build(prot)
        run_request(sim, proxy, "c1", "/a")
        assert server.table.total_entries() == 0
        outcome = run_request(sim, proxy, "c1", "/a")
        # Zero GET lease: second access must validate...
        assert outcome.validated and outcome.status == 304
        # ...which registers the site with a full lease.
        assert server.table.total_entries() == 1
        # Third access is served locally under the lease.
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.served_from_cache and not outcome.validated

    def test_two_tier_still_strongly_consistent(self):
        prot = two_tier_lease(lease_duration=100.0)
        sim, net, fs, server, proxy = build(prot)
        run_request(sim, proxy, "c1", "/a")
        run_request(sim, proxy, "c1", "/a")  # now registered
        fs.modify("/a", now=sim.now + 1)
        server.check_in("/a")
        sim.run()
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.transfer
        assert not outcome.stale_served


class TestFailures:
    def test_server_down_request_fails(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        server.crash()
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.failed
        assert proxy.failed_requests == 1

    def test_proxy_recovery_marks_questionable_and_revalidates(self):
        sim, net, fs, server, proxy = build(invalidation())
        run_request(sim, proxy, "c1", "/a")
        proxy.crash()
        flagged = proxy.recover()
        assert flagged == 1
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.validated  # questionable copy revalidated
        assert outcome.status == 304
        assert proxy.questionable_validations == 1

    def test_server_recovery_invalidate_by_server(self):
        sim, net, fs, server, proxy = build(invalidation())
        run_request(sim, proxy, "c1", "/a")
        run_request(sim, proxy, "c1", "/b")
        server.crash()
        fs.modify("/a", now=sim.now + 1)  # changed while server down
        server.recover()
        sim.run()
        assert proxy.server_invalidations_received == 1
        # Both copies questionable now; /a validation returns 200.
        outcome = run_request(sim, proxy, "c1", "/a")
        assert outcome.validated and outcome.status == 200
        assert not outcome.stale_served
        outcome = run_request(sim, proxy, "c1", "/b")
        assert outcome.validated and outcome.status == 304


class TestNetworkLegEdges:
    """Exact end times of a fill whose round trip goes wrong.

    One request to ``/a``: the lookup ends at ``cpu_lookup`` and the GET
    reaches the server one latency (1 ms) later.  The reply timer starts
    at that delivery, not at the send.
    """

    LATENCY = 0.001

    def start_fill(self, proxy):
        calls = []
        proxy.submit("c1", "/a", calls.append)
        return calls

    def delivered_at(self, proxy):
        return proxy.costs.cpu_lookup + self.LATENCY

    def test_send_to_down_server_fails_at_connect_timeout(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        server.crash()
        calls = self.start_fill(proxy)
        sim.run()
        assert len(calls) == 1
        assert calls[0].failed
        assert calls[0].finished == proxy.costs.cpu_lookup + net.connect_timeout
        assert proxy.failed_requests == 1

    def test_server_crash_after_delivery_fails_at_reply_timeout(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        calls = self.start_fill(proxy)
        # The server needs well over 0.1 ms to answer a GET.
        sim.call_later(self.delivered_at(proxy) + 0.0001, server.crash)
        sim.run()
        assert len(calls) == 1
        assert calls[0].failed
        assert calls[0].finished == self.delivered_at(proxy) + proxy.reply_timeout
        assert proxy.failed_requests == 1
        assert net.stats.by_category() == {"get": 1}

    @pytest.mark.parametrize(
        "crash_at", [0.0009, 0.0019], ids=["in-flight", "delivered"]
    )
    def test_proxy_crash_and_warm_recovery_fails_once_at_timer(self, crash_at):
        sim, net, fs, server, proxy = build(poll_every_time())
        calls = self.start_fill(proxy)
        sim.call_later(crash_at, proxy.crash)
        sim.call_later(crash_at + 0.00005, proxy.recover)
        sim.run()
        # The crash forgot the pending reply, so the server's 200 reaches
        # a live proxy that ignores it; the armed timer ends the request.
        assert net.stats.by_category() == {"get": 1, "reply-200": 1}
        assert len(calls) == 1
        assert calls[0].failed
        assert calls[0].finished == self.delivered_at(proxy) + proxy.reply_timeout
        assert proxy.failed_requests == 1
        assert len(proxy.cache) == 0

    def test_reply_after_timer_is_ignored(self):
        sim, net, fs, server, proxy = build(poll_every_time())
        proxy.reply_timeout = 0.1  # the server answers after about 0.14 s
        calls = self.start_fill(proxy)
        sim.run()
        assert net.stats.by_category() == {"get": 1, "reply-200": 1}
        assert len(calls) == 1
        assert calls[0].failed
        assert calls[0].finished == self.delivered_at(proxy) + 0.1
        assert proxy.failed_requests == 1
        assert len(proxy.cache) == 0


def test_fill_on_idle_server_is_a_chain_of_proxy_callbacks():
    # Proxy-owned events of one fill: 2 (the lookup and the insert
    # timer); the send reports its outcome through a plain callback, in
    # the network's delivery event.  The first callback chain owned 3
    # (the send outcome was an event of its own) and the generator leg 7:
    # the lookup, five events of the `_network_leg` process (its start,
    # the send outcome, the `AnyOf`, the insert sleep and its end) and the
    # reply waiter.
    sim, net, fs, server, proxy = build(poll_every_time())
    tracer = EventTracer(sim)
    calls = []
    proxy.submit("c1", "/a", calls.append)
    sim.run()
    assert len(calls) == 1 and calls[0].transfer
    owners = tracer.owners
    assert not [
        name for name in owners
        if "_network_leg" in name or "AnyOf" in name or "_Condition" in name
    ]
    proxy_owned = {
        name: count for name, count in owners.items()
        if name.startswith("ProxyCache.")
    }
    assert proxy_owned == {
        "ProxyCache._on_lookup": 1,
        "ProxyCache._finish": 1,
    }


class _FixedDraws:
    """Link-fault RNG: always duplicate, then the given jitter draws."""

    def __init__(self, *jitters):
        self.jitters = list(jitters)

    def random(self):
        return 0.0

    def uniform(self, low, high):
        return self.jitters.pop(0)


def test_reply_that_overtakes_the_send_outcome_is_applied_at_delivery():
    # The GET is duplicated and the copy arrives 1 s before the original,
    # so the copy's reply comes back before the send has completed.  The
    # reply is applied when the original is delivered, and the second
    # reply is ignored.
    sim, net, fs, server, proxy = build(poll_every_time())
    net.set_link_fault(
        "proxy-0", "server", LinkFault(dup_prob=1.0, jitter=1.0),
        rng=_FixedDraws(1.0, 0.0),
    )
    calls = []
    proxy.submit("c1", "/a", calls.append)
    sim.run()
    delivered = proxy.costs.cpu_lookup + 0.001 + 1.0
    assert net.stats.by_category() == {"get": 1, "reply-200": 2}
    assert len(calls) == 1
    assert not calls[0].failed and calls[0].transfer
    assert calls[0].finished == pytest.approx(delivered + proxy.costs.cpu_insert)
    assert len(proxy.cache) == 1
