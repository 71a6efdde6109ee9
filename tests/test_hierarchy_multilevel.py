"""Multi-level hierarchies: parents chaining to parents.

A :class:`ParentProxy`'s upstream is just an address, so parents compose
into deeper trees without new code: server <- top <- mid <- leaf.  These
tests pin that property (fetch path, per-level interest, invalidation
propagation down the chain, end-to-end strong consistency).
"""

from repro.core import invalidation
from repro.hierarchy import ParentProxy
from repro.net import FixedLatency, Network
from repro.proxy import Cache, ProxyCache
from repro.server import FileStore, ServerSite
from repro.sim import Simulator


def build_chain():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.001), connect_timeout=0.5)
    fs = FileStore.from_catalog({"/a": 1000})
    protocol = invalidation()
    server = ServerSite(sim, net, "server", fs, accel=protocol.accelerator)
    top = ParentProxy(sim, net, "top", "server")
    mid = ParentProxy(sim, net, "mid", "top")
    leaf = ProxyCache(
        sim,
        net,
        "leaf",
        "mid",
        policy=protocol.client_policy,
        cache=Cache(),
        oracle=lambda url: fs.get(url).last_modified,
    )
    return sim, fs, server, top, mid, leaf


def request(sim, proxy, client, url):
    outcomes = []
    proxy.submit(client, url, outcomes.append)
    sim.run()
    (outcome,) = outcomes
    return outcome


def test_fetch_traverses_all_levels():
    sim, fs, server, top, mid, leaf = build_chain()
    outcome = request(sim, leaf, "c1", "/a")
    assert outcome.transfer and outcome.body_bytes == 1000
    assert mid.upstream_fetches == 1
    assert top.upstream_fetches == 1
    assert server.requests_handled == 1
    # Each level knows only its direct downstream.
    assert server.table.total_entries() == 1  # top
    assert len(top.interest.site_list("/a")) == 1  # mid
    assert len(mid.interest.site_list("/a")) == 1  # c1 via leaf


def test_second_fetch_stops_at_mid():
    sim, fs, server, top, mid, leaf = build_chain()
    request(sim, leaf, "c1", "/a")
    outcome = request(sim, leaf, "c2", "/a")
    assert outcome.transfer
    assert mid.requests_served == 2
    assert top.upstream_fetches == 1  # mid's cache absorbed the miss
    assert server.requests_handled == 1


def test_invalidation_cascades_down_the_chain():
    sim, fs, server, top, mid, leaf = build_chain()
    request(sim, leaf, "c1", "/a")
    fs.modify("/a", now=sim.now)
    server.check_in("/a")
    sim.run()
    assert server.invalidations_sent == 1  # to top
    assert top.invalidations_forwarded == 1  # to mid
    assert mid.invalidations_forwarded == 1  # to c1 at leaf
    assert leaf.invalidations_received == 1
    outcome = request(sim, leaf, "c1", "/a")
    assert outcome.transfer
    assert not outcome.stale_served


def test_mid_level_crash_recovery_keeps_consistency():
    sim, fs, server, top, mid, leaf = build_chain()
    request(sim, leaf, "c1", "/a")
    mid.crash()
    fs.modify("/a", now=sim.now + 1)
    server.check_in("/a")
    sim.run(until=sim.now + 5.0)
    mid.recover()
    sim.run(until=sim.now + 120.0)  # retried invalidation + recovery fan-out
    # The recovery broadcast reached the leaf, the only child mid knows.
    assert mid.invalidations_forwarded == 1
    assert leaf.server_invalidations_received == 1
    outcome = request(sim, leaf, "c1", "/a")
    assert not outcome.stale_served
