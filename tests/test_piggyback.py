"""Tests for the piggyback-server-invalidation (PSI) extension."""


from repro.core import adaptive_ttl, piggyback_invalidation
from repro.net import FixedLatency, Network
from repro.proxy import Cache, CacheEntry, ProxyCache
from repro.server import FileStore, ServerSite
from repro.sim import Simulator


def build(protocol=None, docs=None):
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.001), connect_timeout=0.5)
    fs = FileStore.from_catalog(docs or {"/a": 1000, "/b": 2000, "/c": 500})
    protocol = protocol or piggyback_invalidation()
    server = ServerSite(sim, net, "server", fs, accel=protocol.accelerator)
    proxy = ProxyCache(
        sim, net, "proxy-0", "server",
        policy=protocol.client_policy,
        cache=Cache(expired_first=protocol.expired_first_cache),
        oracle=lambda url: fs.get(url).last_modified,
    )
    return sim, net, fs, server, proxy


def request(sim, proxy, client, url):
    outcomes = []
    proxy.submit(client, url, outcomes.append)
    sim.run()
    (outcome,) = outcomes
    return outcome


class TestCacheUrlIndex:
    def test_remove_url_drops_all_clients(self):
        cache = Cache()
        for client in ("c1", "c2", "c3"):
            cache.put(
                CacheEntry(url="/a", client_id=client, size=10,
                           last_modified=0.0),
                now=0.0,
            )
        cache.put(
            CacheEntry(url="/b", client_id="c1", size=10, last_modified=0.0),
            now=0.0,
        )
        assert cache.remove_url("/a") == 3
        assert len(cache) == 1
        assert cache.remove_url("/a") == 0
        assert cache.used_bytes == 10

    def test_index_survives_eviction_and_replace(self):
        cache = Cache(capacity_bytes=30)
        for i in range(5):
            cache.put(
                CacheEntry(url=f"/d{i}", client_id="c", size=10,
                           last_modified=0.0),
                now=float(i),
            )
        # Oldest entries evicted; remove_url on them returns 0.
        assert cache.remove_url("/d0") == 0
        assert cache.remove_url("/d4") == 1


class TestProtocolBundle:
    def test_factory(self):
        protocol = piggyback_invalidation(cap=7)
        assert protocol.accelerator.piggyback
        assert not protocol.accelerator.invalidation
        assert protocol.accelerator.piggyback_cap == 7
        assert protocol.needs_check_in
        assert not protocol.uses_invalidation
        assert not protocol.strong

    def test_plain_ttl_has_no_check_in(self):
        assert not adaptive_ttl().needs_check_in


class TestPiggybackFlow:
    def test_modified_urls_piggybacked_on_next_reply(self):
        sim, net, fs, server, proxy = build()
        request(sim, proxy, "c1", "/a")
        request(sim, proxy, "c1", "/b")
        fs.modify("/a", now=sim.now)
        server.check_in("/a")
        # Next contact (for /c) carries the /a invalidation.
        request(sim, proxy, "c1", "/c")
        assert server.piggybacked_urls == 1
        assert proxy.piggyback_copies_removed == 1
        # /a is gone from the cache, /b intact.
        assert proxy.cache.peek("/a@c1") is None
        assert proxy.cache.peek("/b@c1") is not None

    def test_requested_url_excluded_from_its_own_reply(self):
        sim, net, fs, server, proxy = build()
        request(sim, proxy, "c1", "/a")
        fs.modify("/a", now=sim.now)
        server.check_in("/a")
        # The refetch of /a itself must not list /a (it IS the fresh copy).
        old = fs.get("/a").last_modified
        # Force a validation by expiring the TTL.
        sim.run(until=sim.now + 3600.0)
        outcome = request(sim, proxy, "c1", "/a")
        assert outcome.status == 200
        assert proxy.cache.peek("/a@c1") is not None
        assert fs.get("/a").last_modified == old

    def test_all_clients_copies_dropped(self):
        sim, net, fs, server, proxy = build()
        request(sim, proxy, "c1", "/a")
        request(sim, proxy, "c2", "/a")
        fs.modify("/a", now=sim.now)
        server.check_in("/a")
        request(sim, proxy, "c3", "/b")  # any contact delivers the list
        assert proxy.piggyback_copies_removed == 2

    def test_psi_reduces_stale_window_vs_plain_ttl(self):
        """After a piggybacked drop, the next read fetches fresh data
        where plain TTL would have served stale."""
        # Plain adaptive TTL: long TTL -> stale serve.
        sim, net, fs, server, proxy = build(protocol=adaptive_ttl())
        fs.get("/a").last_modified = -10 * 86400.0
        request(sim, proxy, "c1", "/a")
        fs.modify("/a", now=sim.now + 1)
        sim.run(until=sim.now + 2)
        stale_ttl = request(sim, proxy, "c1", "/a").stale_served
        assert stale_ttl

        # PSI: an intervening contact delivers the invalidation.
        sim, net, fs, server, proxy = build()
        fs.get("/a").last_modified = -10 * 86400.0
        request(sim, proxy, "c1", "/a")
        fs.modify("/a", now=sim.now + 1)
        server.check_in("/a")
        sim.run(until=sim.now + 2)
        request(sim, proxy, "c1", "/b")  # contact -> piggyback applies
        outcome = request(sim, proxy, "c1", "/a")
        assert not outcome.stale_served
        assert outcome.transfer

    def test_cap_respected(self):
        docs = {f"/d{i}": 100 for i in range(30)}
        sim, net, fs, server, proxy = build(
            protocol=piggyback_invalidation(cap=5), docs=docs
        )
        request(sim, proxy, "c1", "/d0")
        for i in range(1, 25):
            fs.modify(f"/d{i}", now=sim.now)
            server.check_in(f"/d{i}")
        request(sim, proxy, "c1", "/d0")
        # Only the cap's worth of URLs travelled.
        assert server.piggybacked_urls <= 5

    def test_first_contact_carries_nothing(self):
        sim, net, fs, server, proxy = build()
        fs.modify("/b", now=1.0)
        server.check_in("/b")
        request(sim, proxy, "c1", "/a")
        assert server.piggybacked_urls == 0
