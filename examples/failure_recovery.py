#!/usr/bin/env python
"""Walk through the paper's three failure scenarios (Section 4).

1. A proxy crashes, misses an invalidation, recovers, and revalidates its
   (questionable) entries instead of serving stale data.
2. The server site crashes, a document changes during the outage, and the
   recovery fan-out (INVALIDATE carrying the server address) makes every
   proxy revalidate.
3. A network partition blocks an invalidation; TCP-with-periodic-retry
   delivers it after the heal.

Usage::

    python examples/failure_recovery.py
"""

from repro import Simulator, invalidation
from repro.chaos import Fault, apply_schedule
from repro.net import FixedLatency, Network
from repro.proxy import Cache, ProxyCache
from repro.server import FileStore, ServerSite


def build():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.001), connect_timeout=0.5)
    fs = FileStore.from_catalog({"/index.html": 4096, "/paper.ps": 200_000})
    protocol = invalidation(retry_interval=5.0)
    server = ServerSite(sim, net, "server", fs, accel=protocol.accelerator)
    proxy = ProxyCache(
        sim, net, "proxy-0", "server",
        policy=protocol.client_policy,
        cache=Cache(),
        oracle=lambda url: fs.get(url).last_modified,
    )
    return sim, net, fs, server, proxy


def inject(sim, net, server, proxy, fault):
    apply_schedule([fault], sim, net, server, {proxy.address: proxy})


def fetch(sim, proxy, client, url, label):
    outcomes = []
    proxy.submit(client, url, outcomes.append)
    sim.run()
    (o,) = outcomes
    how = (
        "FAILED" if o.failed
        else "served from cache" if (o.served_from_cache and not o.validated)
        else f"validated ({o.status})" if o.validated
        else "fetched (200)"
    )
    print(f"    [{label}] {client} GET {url}: {how}"
          f"{'  ** STALE **' if o.stale_served else ''}")
    return o


def scenario_proxy_crash():
    print("Scenario 1: proxy crash misses an invalidation")
    sim, net, fs, server, proxy = build()
    fetch(sim, proxy, "alice", "/index.html", "t0")
    inject(sim, net, server, proxy,
           Fault("proxy_crash", sim.now + 1, sim.now + 60, target="proxy-0"))
    sim.run(until=sim.now + 2)
    print("    proxy crashed; modifying /index.html on the server")
    fs.modify("/index.html", now=sim.now)
    server.check_in("/index.html")
    sim.run(until=sim.now + 120)  # recovery + retried delivery
    o = fetch(sim, proxy, "alice", "/index.html", "after recovery")
    assert not o.stale_served
    print("    -> no stale data despite the missed invalidation\n")


def scenario_server_crash():
    print("Scenario 2: server-site crash and recovery fan-out")
    sim, net, fs, server, proxy = build()
    fetch(sim, proxy, "bob", "/index.html", "t0")
    fetch(sim, proxy, "bob", "/paper.ps", "t0")
    inject(sim, net, server, proxy,
           Fault("server_crash", sim.now + 1, sim.now + 30, target="server"))
    sim.run(until=sim.now + 2)
    print("    server down; /index.html changes during the outage")
    fs.modify("/index.html", now=sim.now)
    sim.run(until=sim.now + 60)
    print(f"    recovery sent INVALIDATE-by-server; proxy received "
          f"{proxy.server_invalidations_received}, all entries questionable")
    o1 = fetch(sim, proxy, "bob", "/index.html", "after recovery")
    o2 = fetch(sim, proxy, "bob", "/paper.ps", "after recovery")
    assert o1.status == 200 and o2.status == 304
    assert not o1.stale_served
    print("    -> changed doc re-fetched, unchanged doc revalidated\n")


def scenario_partition():
    print("Scenario 3: network partition, periodic TCP retry")
    sim, net, fs, server, proxy = build()
    fetch(sim, proxy, "carol", "/index.html", "t0")
    inject(sim, net, server, proxy,
           Fault("partition", sim.now + 1, sim.now + 40, target="proxy-0",
                 params={"group_a": ["server"], "group_b": ["proxy-0"]}))
    sim.run(until=sim.now + 2)
    print("    partition up; modifying /index.html (invalidation will retry)")
    fs.modify("/index.html", now=sim.now)
    server.check_in("/index.html")
    sim.run(until=sim.now + 80)
    print(f"    invalidations delivered after heal: {proxy.invalidations_received}")
    o = fetch(sim, proxy, "carol", "/index.html", "after heal")
    assert o.transfer and not o.stale_served
    print("    -> strong consistency preserved across the partition\n")


def main() -> None:
    scenario_proxy_crash()
    scenario_server_crash()
    scenario_partition()
    print("All three failure scenarios handled without stale serves.")


if __name__ == "__main__":
    main()
