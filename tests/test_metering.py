"""Tests for hit metering (Section 7 integration)."""

import pytest

from repro.core import adaptive_ttl, invalidation
from repro.metering import HitMeter, UsageLedger
from repro.net import FixedLatency, Network
from repro.proxy import Cache, ProxyCache
from repro.server import FileStore, ServerSite
from repro.sim import Simulator


class TestHitMeter:
    def test_record_and_take(self):
        meter = HitMeter()
        meter.record("/a")
        meter.record("/a")
        meter.record("/b")
        assert meter.pending("/a") == 2
        assert meter.take("/a") == 2
        assert meter.take("/a") == 0
        assert meter.total_pending == 1
        assert meter.total_recorded == 3
        assert meter.total_reported == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HitMeter().record("/a", count=-1)


class TestUsageLedger:
    def test_direct_and_reported(self):
        ledger = UsageLedger()
        ledger.record_request("/a")
        ledger.record_request("/a")
        ledger.record_reported_hits("/a", 5)
        assert ledger.direct("/a") == 2
        assert ledger.reported("/a") == 5
        assert ledger.total("/a") == 7
        assert ledger.grand_total() == 7

    def test_top(self):
        ledger = UsageLedger()
        ledger.record_request("/hot")
        ledger.record_reported_hits("/hot", 10)
        ledger.record_request("/cold")
        assert ledger.top(1) == [("/hot", 11)]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            UsageLedger().record_reported_hits("/a", -1)


class TestEndToEnd:
    def build(self, protocol):
        sim = Simulator()
        net = Network(sim, latency=FixedLatency(0.001), connect_timeout=0.5)
        fs = FileStore.from_catalog({"/a": 1000})
        server = ServerSite(sim, net, "server", fs, accel=protocol.accelerator)
        meter = HitMeter()
        proxy = ProxyCache(
            sim, net, "proxy-0", "server",
            policy=protocol.client_policy, cache=Cache(), meter=meter,
        )
        return sim, fs, server, proxy, meter

    def drive(self, sim, proxy, requests):
        """Run ``requests`` one after another: each starts as the last ends."""
        pending = iter(requests)

        def submit_next(_outcome=None):
            request = next(pending, None)
            if request is not None:
                proxy.submit(*request, submit_next)

        submit_next()
        sim.run()

    def test_invalidation_hits_metered_and_reported(self):
        sim, fs, server, proxy, meter = self.build(invalidation())
        # Fetch, then three local serves, then a modification forces a
        # refetch which piggybacks the count.
        self.drive(sim, proxy, [("c1", "/a")] * 4)
        assert meter.pending("/a") == 3
        assert server.ledger.direct("/a") == 1
        fs.modify("/a", now=sim.now)
        server.check_in("/a")
        sim.run()
        self.drive(sim, proxy, [("c1", "/a")])
        assert server.ledger.reported("/a") == 3
        assert server.ledger.direct("/a") == 2

    def test_conservation_law(self):
        """Ledger + unreported residue == true access count."""
        sim, fs, server, proxy, meter = self.build(adaptive_ttl())
        requests = [("c1", "/a")] * 7 + [("c2", "/a")] * 4
        self.drive(sim, proxy, requests)
        assert server.ledger.total("/a") + meter.pending("/a") == len(requests)

    def test_metering_off_by_default(self):
        sim = Simulator()
        net = Network(sim, latency=FixedLatency(0.001))
        fs = FileStore.from_catalog({"/a": 100})
        protocol = invalidation()
        server = ServerSite(sim, net, "server", fs, accel=protocol.accelerator)
        proxy = ProxyCache(
            sim, net, "proxy-0", "server",
            policy=protocol.client_policy, cache=Cache(),
        )
        self.drive(sim, proxy, [("c1", "/a")] * 2)
        # Without a meter, only direct requests are counted.
        assert server.ledger.total("/a") == 1
        assert server.ledger.reported("/a") == 0
