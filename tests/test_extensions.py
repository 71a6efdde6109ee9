"""Tests for the extension features: fixed TTL, multicast invalidation,
WAN latency override."""

import pytest

from repro import fixed_ttl, invalidation
from repro.core import SERVE, VALIDATE, FixedTtlPolicy
from repro.core.fixed_ttl import fixed_ttl as fixed_ttl_factory
from repro.http import Invalidate, make_invalidate
from repro.net import FixedLatency, Network, WanModel
from repro.proxy import Cache, CacheEntry, ProxyCache
from repro.server import FileStore, ServerSite
from repro.sim import Simulator


class TestFixedTtl:
    def test_validation(self):
        with pytest.raises(ValueError):
            FixedTtlPolicy(ttl=-1)

    def test_same_ttl_for_all_ages(self):
        policy = FixedTtlPolicy(ttl=100.0)
        entry = CacheEntry(
            url="/a", client_id="c", size=1, last_modified=0.0
        )

        class Reply:
            last_modified = 0.0

        policy.on_fill(entry, Reply(), now=50.0)
        assert entry.expires == 150.0
        policy.on_validated(entry, Reply(), now=400.0)
        assert entry.expires == 500.0

    def test_action(self):
        policy = FixedTtlPolicy(ttl=10.0)
        entry = CacheEntry(
            url="/a", client_id="c", size=1, last_modified=0.0, expires=10.0,
        )
        assert policy.action(entry, now=5.0) == SERVE
        assert policy.action(entry, now=10.0) == VALIDATE

    def test_protocol_bundle(self):
        protocol = fixed_ttl_factory(ttl=60.0)
        assert not protocol.strong
        assert protocol.expired_first_cache
        assert "60" in protocol.name
        assert fixed_ttl(30.0).client_policy.ttl == 30.0


class TestMulticastMessages:
    """The grouped form's payload; its sizes are in test_http_messages.py."""

    def test_multi_invalidate_requires_clients(self):
        with pytest.raises(ValueError):
            make_invalidate("s", "p", [("/a", [])])
        with pytest.raises(ValueError):
            make_invalidate("s", "p", [])

    def test_single_form_target_clients(self):
        inv = make_invalidate("s", "p", [("/a", ["c7"])])
        assert inv.pairs == (("/a", ("c7",)),)

    def test_server_form_has_no_target_clients(self):
        inv = Invalidate(src="s", dst="p", size=10, server="s")
        assert inv.pairs is None


class TestMulticastInvalidation:
    def build(self, multicast):
        sim = Simulator()
        net = Network(sim, latency=FixedLatency(0.001), connect_timeout=0.5)
        fs = FileStore.from_catalog({"/a": 1000})
        protocol = invalidation(multicast=multicast)
        server = ServerSite(sim, net, "server", fs, accel=protocol.accelerator)
        proxy = ProxyCache(
            sim, net, "proxy-0", "server",
            policy=protocol.client_policy, cache=Cache(),
        )
        return sim, net, fs, server, proxy

    def seed_clients(self, sim, proxy, count):
        """Client ``c<i>`` fetches ``/a`` once the one before it is done."""
        clients = iter(range(count))

        def submit_next(_outcome=None):
            i = next(clients, None)
            if i is not None:
                proxy.submit(f"c{i}", "/a", submit_next)

        submit_next()
        sim.run()

    def test_one_message_per_proxy(self):
        sim, net, fs, server, proxy = self.build(multicast=True)
        self.seed_clients(sim, proxy, 5)
        fs.modify("/a", now=sim.now)
        server.check_in("/a")
        sim.run()
        # One multicast message covers all five clients.
        assert server.invalidations_sent == 1
        assert net.stats.messages("invalidate") == 1
        # All five copies are gone.
        assert len(proxy.cache) == 0
        assert len(server.table.site_list("/a")) == 0

    def test_unicast_sends_one_per_client(self):
        sim, net, fs, server, proxy = self.build(multicast=False)
        self.seed_clients(sim, proxy, 5)
        fs.modify("/a", now=sim.now)
        server.check_in("/a")
        sim.run()
        assert server.invalidations_sent == 5
        assert net.stats.messages("invalidate") == 5

    def test_multicast_protocol_name(self):
        assert invalidation(multicast=True).name == "invalidation-multicast"


class TestWanModel:
    def test_wan_latency_larger_than_lan(self):
        from repro.net import LanModel, Message

        lan = LanModel()
        wan = WanModel(base_delay=0.05, jitter=0.0)
        msg = Message(src="a", dst="b", size=1000)
        assert wan.delay(msg) > lan.delay(msg)

    def test_experiment_accepts_latency_override(self):
        from repro import (
            DAYS,
            ExperimentConfig,
            PROFILES,
            RngRegistry,
            generate_trace,
            poll_every_time,
            run_experiment,
        )

        trace = generate_trace(PROFILES["SDSC"].scaled(0.01), RngRegistry(seed=3))
        lan = run_experiment(
            ExperimentConfig(
                trace=trace, protocol=poll_every_time(), mean_lifetime=5 * DAYS
            )
        )
        wan = run_experiment(
            ExperimentConfig(
                trace=trace,
                protocol=poll_every_time(),
                mean_lifetime=5 * DAYS,
                latency_model=WanModel(
                    base_delay=0.08, jitter=0.02, size_scale=100.0
                ),
            )
        )
        # Polling contacts the server on every request: WAN latency must
        # dominate its response times.
        assert wan.avg_latency > 1.5 * lan.avg_latency
        assert wan.min_latency > lan.min_latency