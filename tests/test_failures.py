"""Tests for the Section 4 failure scenarios end-to-end.

The three scenarios the paper walks through (proxy failure, server-site
failure, network partition) are at the top; the chaos extensions (cold
restarts, site-log loss, link faults, clock skew, bounded retries) are
below them.
"""

from repro.chaos import Fault, apply_schedule
from repro.core import invalidation
from repro.net import FixedLatency, Network
from repro.proxy import Cache, ProxyCache
from repro.server import FileStore, ServerSite
from repro.sim import Simulator


def build(max_retries=None):
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.001), connect_timeout=0.5)
    fs = FileStore.from_catalog({"/a": 1000, "/b": 2000})
    protocol = invalidation(retry_interval=5.0, max_retries=max_retries)
    server = ServerSite(sim, net, "server", fs, accel=protocol.accelerator)
    proxy = ProxyCache(
        sim,
        net,
        "proxy-0",
        "server",
        policy=protocol.client_policy,
        cache=Cache(),
        oracle=lambda url: fs.get(url).last_modified,
    )
    return sim, net, fs, server, proxy


def inject(sim, net, server, proxy, *faults):
    """Arm ``faults`` against the testbed; returns the fault log."""
    return apply_schedule(faults, sim, net, server, {proxy.address: proxy})


def partition(at, until):
    """The server cut off from proxy-0 over ``[at, until)``."""
    return Fault("partition", at, until, target="proxy-0",
                 params={"group_a": ["server"], "group_b": ["proxy-0"]})


def link_fault(at, until, **probs):
    """A seeded fault on the server -> proxy-0 link over ``[at, until)``."""
    return Fault("link_fault", at, until, target="server->proxy-0",
                 params={"src": "server", "dst": "proxy-0", "rng_seed": 5,
                         **probs})


def request(sim, proxy, client, url):
    outcomes = []
    proxy.submit(client, url, outcomes.append)
    sim.run()
    (outcome,) = outcomes
    return outcome


class TestProxyFailure:
    def test_missed_invalidation_handled_by_questionable_marking(self):
        """Scenario 1: proxy down during invalidation; no stale serve."""
        sim, net, fs, server, proxy = build()
        request(sim, proxy, "c1", "/a")

        inject(sim, net, server, proxy,
               Fault("proxy_crash", sim.now + 1.0, sim.now + 100.0,
                     target="proxy-0"))
        sim.run(until=sim.now + 2.0)

        # Modify while the proxy is down; invalidation can't reach it, but
        # the reliable channel keeps retrying.
        fs.modify("/a", now=sim.now)
        server.check_in("/a")
        sim.run(until=sim.now + 200.0)

        # After recovery the entry is questionable; whether or not the
        # retried INVALIDATE already arrived, the client never sees stale
        # data.
        outcome = request(sim, proxy, "c1", "/a")
        assert not outcome.stale_served
        assert outcome.status in (200, None) or outcome.validated

    def test_recovery_marks_everything_questionable(self):
        sim, net, fs, server, proxy = build()
        request(sim, proxy, "c1", "/a")
        request(sim, proxy, "c1", "/b")
        log = inject(sim, net, server, proxy,
                     Fault("proxy_crash", sim.now + 1.0, sim.now + 2.0,
                           target="proxy-0"))
        sim.run(until=sim.now + 3.0)
        events = [e["kind"] for e in log]
        assert "proxy-crash" in events
        assert any(k.startswith("proxy-recover(2") for k in events)
        outcome = request(sim, proxy, "c1", "/b")
        assert outcome.validated  # questionable -> revalidate
        assert outcome.status == 304


class TestServerFailure:
    def test_modification_during_outage_not_served_stale(self):
        """Scenario 2: server dies, document changes, server recovers."""
        sim, net, fs, server, proxy = build()
        request(sim, proxy, "c1", "/a")
        inject(sim, net, server, proxy,
               Fault("server_crash", sim.now + 1.0, sim.now + 50.0,
                     target="server"))
        sim.run(until=sim.now + 2.0)
        # "Modified" while down: e.g. restored from backup with new data.
        fs.modify("/a", now=sim.now)
        sim.run(until=sim.now + 100.0)
        # Recovery fan-out marked the proxy's entries questionable.
        assert proxy.server_invalidations_received == 1
        outcome = request(sim, proxy, "c1", "/a")
        assert outcome.validated
        assert outcome.status == 200
        assert not outcome.stale_served

    def test_site_lists_rebuilt_after_crash(self):
        sim, net, fs, server, proxy = build()
        request(sim, proxy, "c1", "/a")
        assert server.table.total_entries() == 1
        inject(sim, net, server, proxy,
               Fault("server_crash", sim.now + 1.0, sim.now + 2.0,
                     target="server"))
        sim.run(until=sim.now + 5.0)
        assert server.table.total_entries() == 0  # volatile state lost
        request(sim, proxy, "c1", "/a")  # questionable -> IMS re-registers
        assert server.table.total_entries() == 1


class TestPartition:
    def test_invalidation_delivered_after_heal(self):
        """Scenario 3: TCP retry carries the invalidation across a heal."""
        sim, net, fs, server, proxy = build()
        request(sim, proxy, "c1", "/a")
        inject(sim, net, server, proxy, partition(sim.now + 1.0, sim.now + 30.0))
        sim.run(until=sim.now + 2.0)
        fs.modify("/a", now=sim.now)
        server.check_in("/a")
        sim.run(until=sim.now + 60.0)
        assert proxy.invalidations_received == 1
        outcome = request(sim, proxy, "c1", "/a")
        assert outcome.transfer  # fresh copy fetched after invalidation
        assert not outcome.stale_served

    def test_requests_fail_during_partition(self):
        sim, net, fs, server, proxy = build()
        inject(sim, net, server, proxy, partition(sim.now + 1.0, sim.now + 100.0))
        sim.run(until=sim.now + 2.0)
        outcome = request(sim, proxy, "c2", "/a")
        assert outcome.failed

    def test_overlapping_partitions_heal_independently(self):
        sim, net, fs, server, proxy = build()
        inject(sim, net, server, proxy, partition(sim.now + 1.0, sim.now + 50.0))
        inject(sim, net, server, proxy, partition(sim.now + 2.0, sim.now + 10.0))
        # After the second partition heals, the first still blocks.
        sim.run(until=sim.now + 20.0)
        assert not net.is_reachable("server", "proxy-0")
        sim.run(until=sim.now + 60.0)
        assert net.is_reachable("server", "proxy-0")


class TestColdRestart:
    def test_cold_restart_wipes_cache(self):
        sim, net, fs, server, proxy = build()
        request(sim, proxy, "c1", "/a")
        request(sim, proxy, "c1", "/b")
        log = inject(sim, net, server, proxy,
                     Fault("proxy_crash", sim.now + 1.0, sim.now + 2.0,
                           target="proxy-0", params={"cold": True}))
        sim.run(until=sim.now + 3.0)
        assert any(e["kind"] == "proxy-recover(cold)" for e in log)
        outcome = request(sim, proxy, "c1", "/a")
        assert not outcome.had_cached_copy
        assert outcome.transfer and not outcome.stale_served

    def test_warm_restart_keeps_cache(self):
        sim, net, fs, server, proxy = build()
        request(sim, proxy, "c1", "/a")
        inject(sim, net, server, proxy,
               Fault("proxy_crash", sim.now + 1.0, sim.now + 2.0,
                     target="proxy-0", params={"cold": False}))
        sim.run(until=sim.now + 3.0)
        outcome = request(sim, proxy, "c1", "/a")
        assert outcome.had_cached_copy
        assert outcome.validated  # questionable -> revalidate first


class TestSiteLogLoss:
    def test_roster_recovery_after_sitelog_loss(self):
        """Server loses the persistent known-sites log: recovery must
        still reach every proxy, via the operator-configured roster."""
        sim, net, fs, server, proxy = build()
        server.proxy_roster = {"proxy-0"}
        request(sim, proxy, "c1", "/a")
        log = inject(sim, net, server, proxy,
                     Fault("server_crash", sim.now + 1.0, sim.now + 5.0,
                           target="server", params={"lose_sitelog": True}))
        sim.run(until=sim.now + 10.0)
        assert any("sitelog lost" in e["kind"] for e in log)
        assert len(server.known_sites.all_sites()) == 0
        assert proxy.server_invalidations_received == 1  # roster reached it
        outcome = request(sim, proxy, "c1", "/a")
        assert outcome.validated and not outcome.stale_served

    def test_sitelog_loss_without_roster_misses_proxies(self):
        sim, net, fs, server, proxy = build()
        request(sim, proxy, "c1", "/a")
        inject(sim, net, server, proxy,
               Fault("server_crash", sim.now + 1.0, sim.now + 5.0,
                     target="server", params={"lose_sitelog": True}))
        sim.run(until=sim.now + 10.0)
        assert proxy.server_invalidations_received == 0


class TestLinkFaults:
    def test_lossy_link_retries_until_delivery(self):
        """The reliable channel carries an INVALIDATE across a lossy link."""
        sim, net, fs, server, proxy = build()
        request(sim, proxy, "c1", "/a")
        inject(sim, net, server, proxy,
               link_fault(sim.now + 1.0, sim.now + 40.0, drop_prob=0.8))
        sim.run(until=sim.now + 2.0)
        fs.modify("/a", now=sim.now)
        server.check_in("/a")
        sim.run(until=sim.now + 120.0)
        assert proxy.invalidations_received == 1
        assert net.stats.messages_lost > 0
        assert "link fault" in net.stats.lost_by_reason()
        outcome = request(sim, proxy, "c1", "/a")
        assert not outcome.stale_served

    def test_duplicating_link_is_idempotent(self):
        sim, net, fs, server, proxy = build()
        request(sim, proxy, "c1", "/a")
        inject(sim, net, server, proxy,
               link_fault(sim.now + 1.0, sim.now + 40.0, dup_prob=1.0))
        sim.run(until=sim.now + 2.0)
        fs.modify("/a", now=sim.now)
        server.check_in("/a")
        sim.run(until=sim.now + 60.0)
        assert net.stats.duplicates_delivered > 0
        assert proxy.invalidations_received >= 1
        outcome = request(sim, proxy, "c1", "/a")
        assert outcome.transfer and not outcome.stale_served


class TestClockSkew:
    def test_skew_applied_and_reset(self):
        sim, net, fs, server, proxy = build()
        log = inject(sim, net, server, proxy,
                     Fault("clock_skew", 1.0, 10.0, target="proxy-0",
                           params={"skew": -25.0}))
        sim.run(until=5.0)
        assert proxy.clock_skew == -25.0
        sim.run(until=15.0)
        assert proxy.clock_skew == 0.0
        kinds = [e["kind"] for e in log]
        assert any(k.startswith("clock-skew(-25") for k in kinds)
        assert "clock-skew(reset)" in kinds

    def test_skew_harmless_for_plain_invalidation(self):
        # Infinite leases: the local clock never decides anything.
        sim, net, fs, server, proxy = build()
        request(sim, proxy, "c1", "/a")
        inject(sim, net, server, proxy,
               Fault("clock_skew", sim.now + 1.0, sim.now + 50.0,
                     target="proxy-0", params={"skew": -30.0}))
        sim.run(until=sim.now + 2.0)
        outcome = request(sim, proxy, "c1", "/a")
        assert outcome.served_from_cache and not outcome.stale_served


class TestBoundedRetries:
    def test_abandoned_invalidation_flushed_on_contact(self):
        """With max_retries set, an undeliverable INVALIDATE is abandoned
        (entry turns dirty) and flushed when the proxy next contacts the
        server — never forgotten."""
        sim, net, fs, server, proxy = build(max_retries=2)
        request(sim, proxy, "c1", "/a")
        inject(sim, net, server, proxy,
               Fault("proxy_crash", sim.now + 1.0, sim.now + 200.0,
                     target="proxy-0"))
        sim.run(until=sim.now + 2.0)
        fs.modify("/a", now=sim.now)
        server.check_in("/a")
        # 3 attempts x 5s retry interval pass long before recovery.
        sim.run(until=sim.now + 100.0)
        assert server.invalidations_abandoned == 1
        sim.run(until=sim.now + 150.0)  # proxy back up
        # First contact flushes the owed INVALIDATE before the reply.
        request(sim, proxy, "c1", "/b")
        sim.run()
        assert proxy.invalidations_received == 1
        assert server.invalidations_abandoned == 1  # not re-abandoned
        outcome = request(sim, proxy, "c1", "/a")
        assert not outcome.stale_served
