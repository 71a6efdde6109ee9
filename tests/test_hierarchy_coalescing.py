"""Tests for upstream request coalescing at parent proxies."""

import hashlib

from repro.core import invalidation
from repro.hierarchy import ParentProxy
from repro.net import FixedLatency, Network
from repro.proxy import Cache, ProxyCache
from repro.server import FileStore, ServerSite
from repro.sim import Simulator


def build():
    sim = Simulator()
    # Slow LAN so concurrent misses genuinely overlap.
    net = Network(sim, latency=FixedLatency(0.05), connect_timeout=0.5)
    fs = FileStore.from_catalog({"/a": 1000, "/b": 500})
    protocol = invalidation()
    server = ServerSite(sim, net, "server", fs, accel=protocol.accelerator)
    parent = ParentProxy(sim, net, "parent", "server")
    children = [
        ProxyCache(
            sim, net, f"child-{i}", "parent",
            policy=protocol.client_policy, cache=Cache(),
        )
        for i in range(3)
    ]
    return sim, fs, server, parent, children


def sequential(sim, requests):
    """Run ``(child, client, url)`` requests one after another."""
    pending = iter(requests)

    def submit_next(_outcome=None):
        request = next(pending, None)
        if request is not None:
            child, client, url = request
            child.submit(client, url, submit_next)

    submit_next()
    sim.run()


def test_concurrent_misses_share_one_upstream_fetch():
    sim, fs, server, parent, children = build()
    outcomes = []
    for i, child in enumerate(children):
        child.submit(f"c{i}", "/a", outcomes.append)
    sim.run()
    assert len(outcomes) == 3
    assert all(o.transfer and o.body_bytes == 1000 for o in outcomes)
    # One origin fetch; two requests coalesced onto it.
    assert server.requests_handled == 1
    assert parent.upstream_fetches == 1
    assert parent.coalesced_fetches == 2


def test_different_urls_not_coalesced():
    sim, fs, server, parent, children = build()
    children[0].submit("c0", "/a", lambda _outcome: None)
    children[1].submit("c1", "/b", lambda _outcome: None)
    sim.run()
    assert parent.upstream_fetches == 2
    assert parent.coalesced_fetches == 0


def test_sequential_requests_not_coalesced():
    sim, fs, server, parent, children = build()
    # Second request hits the parent cache, no upstream fetch at all.
    sequential(sim, [(children[0], "c0", "/a"), (children[1], "c1", "/a")])
    assert parent.upstream_fetches == 1
    assert parent.coalesced_fetches == 0
    assert server.requests_handled == 1


def test_coalesced_after_invalidation_refetch():
    sim, fs, server, parent, children = build()
    sequential(sim, [(children[0], "c0", "/a"), (children[1], "c1", "/a")])
    fs.modify("/a", now=sim.now)
    server.check_in("/a")
    sim.run()

    outcomes = []
    children[0].submit("c0", "/a", outcomes.append)
    children[1].submit("c1", "/a", outcomes.append)
    sim.run()
    # Both were invalidated; the refetch coalesces to one origin hit.
    assert server.requests_handled == 2  # initial + one refetch
    assert len(outcomes) == 2
    assert all(not o.stale_served for o in outcomes)


# ---------------------------------------------------------------------------
# Pinned instants.  The replay's golden cases never coalesce a fetch or
# revalidate a parent's copy, so these two scenarios pin the end instant
# and status of every child request, and a digest of every message sent
# (send time, class, category, source, destination, size), in order.
# ---------------------------------------------------------------------------


def record_sends(monkeypatch):
    """Log every :meth:`Network.send` from now on; returns the log."""
    sends = []
    send = Network.send

    def recording_send(network, message, *args):
        sends.append(
            f"{network.sim.now!r} {type(message).__name__} {message.category} "
            f"{message.src} {message.dst} {message.size}\n"
        )
        return send(network, message, *args)

    monkeypatch.setattr(Network, "send", recording_send)
    return sends


def send_digest(sends) -> str:
    """SHA-256 of a send log."""
    return hashlib.sha256("".join(sends).encode()).hexdigest()


def concurrent_requests(sim, children):
    """Child ``i`` asks for ``/a`` as client ``c<i>``, all at once."""
    ends = []
    for i, child in enumerate(children):
        child.submit(
            f"c{i}", "/a", lambda o: ends.append((o.client_id, o.finished, o.status))
        )
    sim.run()
    return ends


def test_coalesced_get_instants_pinned(monkeypatch):
    """Three concurrent misses share one upstream GET."""
    sends = record_sends(monkeypatch)
    sim, fs, server, parent, children = build()
    ends = concurrent_requests(sim, children)
    assert (parent.upstream_fetches, parent.coalesced_fetches) == (1, 2)
    assert ends == [
        ("c0", 0.36965468749999997, 200),
        ("c1", 0.36965468749999997, 200),
        ("c2", 0.36965468749999997, 200),
    ]
    assert send_digest(sends) == (
        "948198f1dc56fa403f637389f7642b4358e0db17aaed80ea959aefbdc4511d4a"
    )


def test_coalesced_ims_instants_pinned(monkeypatch):
    """A questionable copy is refreshed by IMS; two misses wait on it.

    The origin crashes and recovers after child-0 fetched ``/a``, so the
    parent's copy and child-0's copy are questionable.  Child-0's IMS
    makes the parent revalidate with an IMS of its own (answered 304),
    and the other two children's GETs coalesce onto that refresh.
    """
    sends = record_sends(monkeypatch)
    sim, fs, server, parent, children = build()
    concurrent_requests(sim, children[:1])
    server.crash()
    sim.run(until=sim.now + 1.0)
    server.recover()
    sim.run()
    assert children[0].server_invalidations_received == 1
    ends = concurrent_requests(sim, children)
    assert (parent.upstream_fetches, parent.coalesced_fetches) == (2, 2)
    assert server.requests_handled == 2
    assert ends == [
        ("c0", 1.8213328125, 304),
        ("c1", 1.8223328124999998, 200),
        ("c2", 1.8223328124999998, 200),
    ]
    assert send_digest(sends) == (
        "d633836f5a9e5e2363c1859e634cb556160454f74207f7642b1a5d66c295319e"
    )
