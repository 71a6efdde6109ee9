#!/usr/bin/env python
"""Hit metering: caching without losing access counts (Section 7).

The paper notes that commercial sites resist caching because it hides
accesses; it proposes merging invalidation with hit-metering protocols.
This example runs a proxy with a hit meter against an invalidation
server and shows the origin's usage ledger reconstructing the true
per-document access counts from direct requests plus piggybacked
reports.

Usage::

    python examples/hit_metering.py
"""

from collections import Counter

from repro import RngRegistry, Simulator, invalidation
from repro.metering import HitMeter
from repro.net import FixedLatency, Network
from repro.proxy import Cache, ProxyCache
from repro.server import FileStore, ServerSite


def main() -> None:
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.001))
    fs = FileStore.from_catalog({"/news": 8000, "/paper": 40000, "/logo": 900})
    protocol = invalidation()
    server = ServerSite(sim, net, "server", fs, accel=protocol.accelerator)
    meter = HitMeter()
    proxy = ProxyCache(
        sim, net, "proxy-0", "server",
        policy=protocol.client_policy, cache=Cache(), meter=meter,
    )

    rng = RngRegistry(seed=7).stream("clients")
    urls = list(fs.urls)
    true_counts = Counter()

    def browse(left):
        client = f"c{rng.randrange(6)}"
        url = rng.choice(urls)
        true_counts[url] += 1
        proxy.submit(client, url, lambda _outcome: think(left - 1))

    def think(left):
        sim.call_later(rng.uniform(0.1, 2.0), maybe_modify, left)

    def maybe_modify(left):
        # Occasionally a document changes, forcing fresh contacts
        # that carry the piggybacked hit reports upstream.
        if rng.random() < 0.03:
            victim = rng.choice(urls)
            fs.modify(victim, now=sim.now)
            server.check_in(victim)
        if left:
            browse(left)

    browse(400)
    sim.run()

    print(f"{'document':12s}{'true':>8s}{'direct':>8s}{'reported':>10s}"
          f"{'unreported':>12s}{'accounted':>11s}")
    for url in urls:
        direct = server.ledger.direct(url)
        reported = server.ledger.reported(url)
        pending = meter.pending(url)
        accounted = direct + reported + pending
        print(f"{url:12s}{true_counts[url]:>8d}{direct:>8d}{reported:>10d}"
              f"{pending:>12d}{accounted:>11d}")
        assert accounted == true_counts[url], "conservation law violated!"

    hidden = meter.total_recorded
    print(f"\nWithout metering the origin would have missed {hidden} accesses "
          f"({hidden / sum(true_counts.values()):.0%} of all traffic).")
    print("Ledger + unreported residue == true counts for every document.")


if __name__ == "__main__":
    main()
