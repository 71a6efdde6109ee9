"""Tests for hierarchical caching with invalidation (Worrell config)."""


import pytest

from repro.chaos import ConsistencyAuditor
from repro.core import invalidation
from repro.hierarchy import ParentProxy
from repro.net import FixedLatency, Network
from repro.proxy import Cache, ProxyCache
from repro.server import FileStore, ServerSite
from repro.sim import Simulator


def build(num_children=2):
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.001), connect_timeout=0.5)
    fs = FileStore.from_catalog({"/a": 1000, "/b": 2000})
    protocol = invalidation(retry_interval=5.0)
    server = ServerSite(sim, net, "server", fs, accel=protocol.accelerator)
    parent = ParentProxy(sim, net, "parent", "server")
    children = [
        ProxyCache(
            sim,
            net,
            f"child-{i}",
            "parent",  # children talk to the parent, not the server
            policy=protocol.client_policy,
            cache=Cache(),
            oracle=lambda url: fs.get(url).last_modified,
        )
        for i in range(num_children)
    ]
    return sim, net, fs, server, parent, children


def request(sim, proxy, client, url):
    outcomes = []
    proxy.submit(client, url, outcomes.append)
    sim.run()
    (outcome,) = outcomes
    return outcome


class TestRequestPath:
    def test_child_miss_fetches_through_parent(self):
        sim, net, fs, server, parent, children = build()
        outcome = request(sim, children[0], "c1", "/a")
        assert outcome.transfer
        assert outcome.body_bytes == 1000
        assert parent.upstream_fetches == 1
        assert server.requests_handled == 1

    def test_second_child_served_from_parent_cache(self):
        sim, net, fs, server, parent, children = build()
        request(sim, children[0], "c1", "/a")
        outcome = request(sim, children[1], "c2", "/a")
        assert outcome.transfer  # child miss, but...
        assert server.requests_handled == 1  # ...no second server hit
        assert parent.upstream_fetches == 1
        assert parent.requests_served == 2

    def test_child_hit_served_locally(self):
        sim, net, fs, server, parent, children = build()
        request(sim, children[0], "c1", "/a")
        outcome = request(sim, children[0], "c1", "/a")
        assert outcome.served_from_cache
        assert not outcome.validated
        assert parent.requests_served == 1  # only the first reached it

    def test_server_tracks_parents_not_clients(self):
        sim, net, fs, server, parent, children = build()
        request(sim, children[0], "c1", "/a")
        request(sim, children[1], "c2", "/a")
        request(sim, children[0], "c3", "/a")
        # Server site list: exactly one entry (the parent).
        assert server.table.total_entries() == 1
        # Parent interest: the three real clients.
        assert len(parent.interest.site_list("/a")) == 3


class TestInvalidationPropagation:
    def test_invalidation_reaches_children_through_parent(self):
        sim, net, fs, server, parent, children = build()
        request(sim, children[0], "c1", "/a")
        request(sim, children[1], "c2", "/a")
        fs.modify("/a", now=sim.now)
        server.check_in("/a")
        sim.run()
        # Server sent ONE invalidation (to the parent)...
        assert server.invalidations_sent == 1
        # ...the parent forwarded to both interested children.
        assert parent.invalidations_forwarded == 2
        assert children[0].invalidations_received == 1
        assert children[1].invalidations_received == 1

    def test_end_to_end_strong_consistency(self):
        sim, net, fs, server, parent, children = build()
        request(sim, children[0], "c1", "/a")
        fs.modify("/a", now=sim.now)
        server.check_in("/a")
        sim.run()
        outcome = request(sim, children[0], "c1", "/a")
        assert outcome.transfer  # copy was invalidated -> refetched
        assert not outcome.stale_served
        # The refetch went through the parent, which also refetched.
        assert parent.upstream_fetches == 2

    def test_uninterested_child_not_notified(self):
        sim, net, fs, server, parent, children = build()
        request(sim, children[0], "c1", "/a")
        request(sim, children[1], "c2", "/b")
        fs.modify("/a", now=sim.now)
        server.check_in("/a")
        sim.run()
        assert children[0].invalidations_received == 1
        assert children[1].invalidations_received == 0

    def test_interest_cleared_after_forwarding(self):
        sim, net, fs, server, parent, children = build()
        request(sim, children[0], "c1", "/a")
        fs.modify("/a", now=sim.now)
        server.check_in("/a")
        sim.run()
        assert len(parent.interest.site_list("/a")) == 0


class TestServerRecoveryThroughHierarchy:
    def test_server_form_forwarded_to_all_children(self):
        sim, net, fs, server, parent, children = build()
        request(sim, children[0], "c1", "/a")
        request(sim, children[1], "c2", "/b")
        server.crash()
        fs.modify("/a", now=sim.now + 1)
        server.recover()
        sim.run()
        # Parent got the server-form invalidate and forwarded it.
        assert children[0].server_invalidations_received == 1
        assert children[1].server_invalidations_received == 1
        # Child copies questionable: next access revalidates end-to-end.
        o = request(sim, children[0], "c1", "/a")
        assert o.validated
        assert not o.stale_served


class TestAuditorBehindParent:
    def test_recovery_forward_still_owed_is_allowed(self):
        # The auditor asked the origin, which had delivered its recovery
        # INVALIDATE to the parent, and counted silent staleness; the
        # parent still owed child-1 the forward.
        sim, net, fs, server, parent, children = build()
        auditor = ConsistencyAuditor([server], strong=True, parents=[parent])
        for child in children:
            child.observer = auditor
        request(sim, children[0], "c1", "/a")
        request(sim, children[1], "c2", "/a")
        children[0].crash()
        server.crash()
        fs.modify("/a", now=sim.now + 1)
        sim.run(until=sim.now + 2.0)
        server.recover()
        sim.run(until=sim.now + 1.0)
        # The parent forwards the origin's INVALIDATE-by-server to its
        # children one after another; child-1's waits behind the retries
        # to the dead child-0, so child-1 may still serve its old copy.
        outcomes = []
        children[1].submit("c2", "/a", outcomes.append)
        sim.run(until=sim.now + 1.0)
        assert outcomes[0].stale_served
        assert auditor.violation_count == 0
        assert auditor.allowed == {"recovery-pending": 1}
        # Once child-0 is back, the forwards go out and the copies revalidate.
        children[0].recover()
        sim.run(until=sim.now + 60.0)
        assert request(sim, children[1], "c2", "/a").validated


class TestParentFailure:
    def test_parent_recovery_marks_children_questionable(self):
        sim, net, fs, server, parent, children = build()
        request(sim, children[0], "c1", "/a")
        parent.crash()
        # Modification while the parent is down: the server's
        # invalidation to the parent retries...
        fs.modify("/a", now=sim.now + 1)
        server.check_in("/a")
        sim.run(until=sim.now + 2.0)
        parent.recover()
        sim.run()
        # The recovery broadcast reached child-0, the only child the
        # parent knows: it was told to distrust everything.
        assert parent.invalidations_forwarded == 1
        assert children[0].server_invalidations_received == 1
        outcome = request(sim, children[0], "c1", "/a")
        assert not outcome.stale_served

    @pytest.mark.parametrize("recover", [False, True])
    def test_crash_during_lookup_ends_the_request(self, recover):
        """A GET in the parent's lookup delay dies with the parent.

        Child-1's GET reaches the warm parent 1.8 ms after it is issued,
        and the parent crashes halfway through its 0.8 ms lookup.  The
        parent must not serve it, record the child's interest in its
        fresh interest table, or try to reply from a down host, and that
        holds even when it recovers at once.
        """
        sim, net, fs, server, parent, children = build()
        request(sim, children[0], "c1", "/a")  # warms the parent
        assert parent.requests_served == 1
        calls = []
        start = sim.now
        children[1].submit("c2", "/a", calls.append)
        sim.run(until=start + 0.0022)
        parent.crash()
        if recover:
            parent.recover()
        sim.run()
        assert len(calls) == 1 and calls[0].failed
        assert parent.requests_served == 1
        assert parent.interest.total_entries() == 0
        assert net.stats.total_dropped == 0

    @pytest.mark.parametrize("recover", [False, True])
    @pytest.mark.parametrize("delay", ["insert", "serve"])
    def test_crash_during_insert_or_serve_ends_the_request(self, delay, recover):
        """A request in the parent's insert or serve delay dies with it.

        For ``insert`` the parent is cold and crashes right after the
        origin's reply to its upstream GET arrives; for ``serve`` it is
        warm and crashes after its lookup has counted child-1's request
        as served.  Either way no reply leaves the parent, not even
        after an immediate recovery.
        """
        sim, net, fs, server, parent, children = build()
        if delay == "insert":
            served, in_delay = 0, lambda: parent.upstream_fetches == 1
        else:
            request(sim, children[0], "c1", "/a")  # warms the parent
            served, in_delay = 2, lambda: parent.requests_served == 2
        calls = []
        children[1].submit("c2", "/a", calls.append)
        while not in_delay():
            sim.step()
        parent.crash()
        if recover:
            parent.recover()
        sim.run()
        assert len(calls) == 1 and calls[0].failed
        assert parent.requests_served == served
        assert parent.interest.total_entries() == 0
        assert net.stats.total_dropped == 0

    def test_requests_fail_while_parent_down(self):
        sim, net, fs, server, parent, children = build()
        parent.crash()
        outcome = request(sim, children[0], "c1", "/a")
        assert outcome.failed


class TestWedgedUpstreamFetch:
    """A fetch the parent can never finish must not wedge its URL.

    A child's GET for ``/a`` reaches the parent at 1.8 ms, and the
    parent's upstream GET reaches the server at 3.6 ms; the server needs
    about 0.14 s to answer it.  A fault in between loses that answer, so
    the first request fails at the child's reply timeout.  A later
    request for the same URL must not wait on the lost fetch.
    """

    def first_fill_fails(self, sim, children, fault):
        calls = []
        children[0].submit("c1", "/a", calls.append)
        sim.call_later(0.01, fault)
        sim.run()
        assert len(calls) == 1 and calls[0].failed

    def test_parent_crash_mid_fetch_does_not_wedge_the_url(self):
        sim, net, fs, server, parent, children = build()

        def crash_and_recover():
            parent.crash()
            sim.call_later(0.01, parent.recover)

        self.first_fill_fails(sim, children, crash_and_recover)
        outcome = request(sim, children[1], "c2", "/a")
        assert not outcome.failed
        assert outcome.transfer and outcome.body_bytes == 1000

    def test_origin_crash_after_get_does_not_wedge_the_url(self):
        sim, net, fs, server, parent, children = build()

        def crash_and_recover():
            server.crash()
            sim.call_later(1.0, server.recover)

        self.first_fill_fails(sim, children, crash_and_recover)
        # The parent gave up on the GET 30 s (the leaf proxy's default reply
        # timeout) after its delivery.
        assert sim.now == pytest.approx(0.0036 + 30.0)
        outcome = request(sim, children[1], "c2", "/a")
        assert not outcome.failed
        assert outcome.transfer and outcome.body_bytes == 1000
