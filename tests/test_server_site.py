"""Integration-level tests for the ServerSite (HTTPD + accelerator)."""


import pytest

from repro.http import (
    NOT_MODIFIED,
    OK,
    HttpResponse,
    Invalidate,
    make_get,
    make_ims,
)
from repro.net import FixedLatency, LinkFault, Network
from repro.server import AcceleratorConfig, FileStore, ServerSite
from repro.sim import Simulator


def setup_site(accel=None, docs=None, latency=0.001, **batching):
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(latency), connect_timeout=0.5)
    fs = FileStore.from_catalog(docs or {"/a": 1000, "/b": 5000})
    site = ServerSite(sim, net, "server", fs, accel=accel, **batching)
    inbox = []
    net.register("proxy", inbox.append)
    return sim, net, fs, site, inbox


def replies(inbox):
    return [m for m in inbox if isinstance(m, HttpResponse)]


def invalidates(inbox):
    return [m for m in inbox if isinstance(m, Invalidate)]


def test_get_returns_200_with_body():
    sim, net, fs, site, inbox = setup_site()
    net.send(make_get("proxy", "server", "/a", client_id="c1"))
    sim.run()
    (reply,) = replies(inbox)
    assert reply.status == OK
    assert reply.body_bytes == 1000
    assert site.replies_200 == 1
    assert site.requests_handled == 1
    assert site.disk_reads == 1
    assert site.disk_writes >= 1  # request log


def test_ims_unmodified_returns_304_without_disk_read():
    sim, net, fs, site, inbox = setup_site()
    net.send(make_ims("proxy", "server", "/a", client_id="c1", ims_timestamp=0.0))
    sim.run()
    (reply,) = replies(inbox)
    assert reply.status == NOT_MODIFIED
    assert site.replies_304 == 1
    assert site.disk_reads == 0


def test_ims_after_modification_returns_200():
    sim, net, fs, site, inbox = setup_site()
    fs.modify("/a", now=10.0)
    net.send(make_ims("proxy", "server", "/a", client_id="c1", ims_timestamp=0.0))
    sim.run()
    (reply,) = replies(inbox)
    assert reply.status == OK
    assert reply.last_modified == 10.0


def test_server_cpu_and_disk_accumulate():
    sim, net, fs, site, inbox = setup_site()
    for i in range(5):
        net.send(make_get("proxy", "server", "/a", client_id=f"c{i}"))
    sim.run()
    assert site.cpu.busy_time() > 0
    assert site.disk.busy_time() > 0
    assert len(replies(inbox)) == 5


def test_invalidation_disabled_does_not_track_sites():
    sim, net, fs, site, inbox = setup_site(accel=AcceleratorConfig(invalidation=False))
    net.send(make_get("proxy", "server", "/a", client_id="c1"))
    sim.run()
    assert site.table.total_entries() == 0
    site.check_in("/a")
    sim.run()
    assert invalidates(inbox) == []


class TestInvalidation:
    def test_get_registers_site(self):
        sim, net, fs, site, inbox = setup_site(accel=AcceleratorConfig(invalidation=True))
        net.send(make_get("proxy", "server", "/a", client_id="c1"))
        sim.run()
        assert site.table.total_entries() == 1
        assert "c1" in site.known_sites

    def test_check_in_sends_invalidations_to_registered_sites(self):
        sim, net, fs, site, inbox = setup_site(accel=AcceleratorConfig(invalidation=True))
        net.send(make_get("proxy", "server", "/a", client_id="c1"))
        net.send(make_get("proxy", "server", "/a", client_id="c2"))
        net.send(make_get("proxy", "server", "/b", client_id="c3"))
        sim.run()
        fs.modify("/a", now=sim.now)
        site.check_in("/a")
        sim.run()
        invs = invalidates(inbox)
        assert {i.client_id for i in invs} == {"c1", "c2"}
        assert all(i.url == "/a" for i in invs)
        assert site.invalidations_sent == 2
        # Sites are forgotten once invalidated.
        assert len(site.table.site_list("/a")) == 0
        assert len(site.invalidation_times) == 1

    def test_browser_based_detection(self):
        sim, net, fs, site, inbox = setup_site(accel=AcceleratorConfig(invalidation=True))
        net.send(make_get("proxy", "server", "/a", client_id="c1"))
        sim.run()
        # No change yet: check returns False and sends nothing.
        site.check_document("/a")
        assert site.check_document("/a") is False
        fs.modify("/a", now=sim.now + 1)
        assert site.check_document("/a") is True
        sim.run()
        assert len(invalidates(inbox)) == 1

    def test_blocking_send_stalls_new_requests(self):
        """With blocking_send, a request arriving mid-fan-out waits."""
        accel = AcceleratorConfig(invalidation=True, blocking_send=True)
        sim, net, fs, site, inbox = setup_site(accel=accel)
        # Register many sites for /a.
        for i in range(50):
            net.send(make_get("proxy", "server", "/a", client_id=f"c{i}"))
        sim.run()
        baseline_replies = len(replies(inbox))
        fs.modify("/a", now=sim.now)
        site.check_in("/a")
        # A request that lands during the fan-out...
        net.send(make_get("proxy", "server", "/b", client_id="x"))
        sim.run()
        fanout = site.invalidation_times[0]
        reply_b = [r for r in replies(inbox)[baseline_replies:] if r.url == "/b"]
        assert len(reply_b) == 1
        # ...was answered only after the fan-out finished (it stalls).
        assert fanout > 0.05

    def test_decoupled_send_does_not_hold_accept_lock(self):
        accel = AcceleratorConfig(invalidation=True, blocking_send=False)
        sim, net, fs, site, inbox = setup_site(accel=accel)
        for i in range(50):
            net.send(make_get("proxy", "server", "/a", client_id=f"c{i}"))
        sim.run()
        fs.modify("/a", now=sim.now)
        site.check_in("/a")
        sim.run()
        assert site.invalidations_sent == 50


class TestInFlightInvalidation:
    """An INVALIDATE in flight covers only the change it was opened for.

    The server->proxy link is slowed by five seconds, so each INVALIDATE
    spends that long between its send and its delivery.  The send does
    not hold the accept lock, so requests are served meanwhile.
    """

    def _slow_site(self, **batching):
        accel = AcceleratorConfig(invalidation=True, blocking_send=False)
        sim, net, fs, site, inbox = setup_site(accel=accel, **batching)
        net.send(make_get("proxy", "server", "/a", client_id="c1"))
        sim.run()
        net.set_link_fault("server", "proxy", LinkFault(extra_delay=5.0))
        return sim, net, fs, site, inbox

    def test_fetch_registered_in_flight_gets_next_invalidation(self):
        sim, net, fs, site, inbox = self._slow_site()
        fs.modify("/a", now=sim.now)
        site.check_in("/a")
        sim.run(until=sim.now + 1.0)
        assert invalidates(inbox) == []  # still in flight
        # c1 fetches the new version; the server registers it again
        # before the first INVALIDATE lands.
        net.send(make_ims("proxy", "server", "/a", client_id="c1", ims_timestamp=0.0))
        sim.run()
        assert len(invalidates(inbox)) == 1
        assert "c1" in site.table.site_list("/a")  # the newer registration
        net.clear_link_fault("server", "proxy")
        fs.modify("/a", now=sim.now)
        site.check_in("/a")
        sim.run()
        assert len(invalidates(inbox)) == 2
        assert site.invalidations_sent == 2

    def test_older_delivery_keeps_newer_buffered_obligation(self):
        sim, net, fs, site, inbox = self._slow_site(batch_window=2.0)
        t0 = sim.now
        fs.modify("/a", now=t0)
        site.check_in("/a")  # buffered; flushed at t0 + 2, lands at t0 + 7
        sim.run(until=t0 + 6.0)
        fs.modify("/a", now=sim.now)
        site.check_in("/a")  # c1 is still listed: buffered until t0 + 8
        sim.run(until=t0 + 7.5)
        assert len(invalidates(inbox)) == 1
        # The first batch must not close the second change's obligation.
        assert site.write_pending("/a", "c1")
        sim.run()
        assert len(invalidates(inbox)) == 2
        assert not site.write_pending("/a", "c1")


class TestLeases:
    def test_lease_expiry_granted_on_replies(self):
        accel = AcceleratorConfig(
            invalidation=True, lease_get=100.0, lease_ims=100.0, grant_leases=True
        )
        sim, net, fs, site, inbox = setup_site(accel=accel)
        net.send(make_get("proxy", "server", "/a", client_id="c1"))
        sim.run()
        (reply,) = replies(inbox)
        assert reply.lease_expires == pytest.approx(sim.now, abs=101.0)
        assert reply.lease_expires is not None

    def test_expired_lease_not_invalidated(self):
        accel = AcceleratorConfig(
            invalidation=True, lease_get=1.0, lease_ims=1.0, grant_leases=True
        )
        sim, net, fs, site, inbox = setup_site(accel=accel)
        net.send(make_get("proxy", "server", "/a", client_id="c1"))
        sim.run()
        # Let the lease lapse, then modify.
        sim.run(until=sim.now + 10.0)
        fs.modify("/a", now=sim.now)
        site.check_in("/a")
        sim.run()
        assert invalidates(inbox) == []

    def test_two_tier_zero_get_lease_not_registered(self):
        accel = AcceleratorConfig(
            invalidation=True, lease_get=0.0, lease_ims=100.0, grant_leases=True
        )
        sim, net, fs, site, inbox = setup_site(accel=accel)
        net.send(make_get("proxy", "server", "/a", client_id="c1"))
        sim.run()
        assert site.table.total_entries() == 0
        (reply,) = replies(inbox)
        # Zero lease: expires immediately (client must validate next time).
        assert reply.lease_expires is not None
        # The validation earns a full lease and registration.
        net.send(
            make_ims("proxy", "server", "/a", client_id="c1", ims_timestamp=0.0)
        )
        sim.run()
        assert site.table.total_entries() == 1


class TestCrashRecovery:
    def test_crash_loses_volatile_site_lists(self):
        sim, net, fs, site, inbox = setup_site(accel=AcceleratorConfig(invalidation=True))
        net.send(make_get("proxy", "server", "/a", client_id="c1"))
        sim.run()
        assert site.table.total_entries() == 1
        site.crash()
        assert site.table.total_entries() == 0
        assert "c1" in site.known_sites  # persistent log survives

    def test_recovery_sends_invalidate_by_server_to_each_proxy(self):
        sim, net, fs, site, inbox = setup_site(accel=AcceleratorConfig(invalidation=True))
        other_inbox = []
        net.register("proxy2", other_inbox.append)
        net.send(make_get("proxy", "server", "/a", client_id="c1"))
        net.send(make_get("proxy", "server", "/b", client_id="c2"))
        net.send(make_get("proxy2", "server", "/a", client_id="c3"))
        sim.run()
        site.crash()
        recovery = site.recover()
        sim.run()
        assert recovery.processed
        # One INVALIDATE-by-server per proxy host (deduplicated).
        invs1 = [m for m in invalidates(inbox) if m.server == "server"]
        invs2 = [m for m in invalidates(other_inbox) if m.server == "server"]
        assert len(invs1) == 1
        assert len(invs2) == 1

    def test_crashed_server_unreachable(self):
        sim, net, fs, site, inbox = setup_site()
        site.crash()
        net.send(make_get("proxy", "server", "/a", client_id="c1"))
        sim.run()
        assert replies(inbox) == []
        assert net.stats.total_dropped == 1


class TestFlushOnContact:
    """A contact from a proxy owed an abandoned INVALIDATE re-sends it first.

    The flush claims the CPU before the contacting request's accept
    stage, so the INVALIDATE leaves after one ``cpu_invalidate_msg`` and
    the request waits for it.  Were admission to claim the CPU at once,
    the INVALIDATE would leave one ``cpu_accept`` (15 ms) later; the
    reply leaves at the same instant either way.
    """

    def test_flushed_invalidate_takes_the_cpu_before_the_request(self):
        accel = AcceleratorConfig(invalidation=True, max_retries=0)
        sim, net, fs, site, inbox = setup_site(accel=accel)
        arrivals = []
        net.register("p2", lambda message: arrivals.append((sim.now, message)))
        net.send(make_get("p2", "server", "/a", client_id="c1"))
        sim.run()
        net.set_down("p2")
        fs.modify("/a", now=sim.now)
        site.check_in("/a")
        sim.run()
        assert site.invalidations_abandoned == 1
        net.set_up("p2")
        del arrivals[:]

        start = sim.now
        net.send(make_get("p2", "server", "/b", client_id="c2"))
        sim.run()
        (inval_at, inval), (reply_at, reply) = arrivals
        assert isinstance(inval, Invalidate) and inval.url == "/a"
        assert isinstance(reply, HttpResponse) and reply.url == "/b"
        costs = site.costs
        arrived = start + 0.001
        assert inval_at == pytest.approx(arrived + costs.cpu_invalidate_msg + 0.001)
        reply_sent = (
            arrived
            + costs.cpu_invalidate_msg
            + costs.cpu_accept
            + costs.cpu_parse + costs.cpu_sitelist
            + costs.disk_sitelog_write
            + costs.disk_fetch(5000)
            + costs.cpu_reply(5000)
            + costs.disk_log_write
        )
        assert reply_at == pytest.approx(reply_sent + 0.001)
        assert not site.write_pending("/a", "c1")
