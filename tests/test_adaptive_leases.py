"""Tests for the adaptive-lease controller and protocol."""

import pytest

from repro.core import adaptive_lease
from repro.net import FixedLatency, Network
from repro.replay import ExperimentConfig, run_experiment
from repro.server import (
    AdaptiveLeaseController,
    FileStore,
    ServerSite,
)
from repro.sim import RngRegistry, Simulator
from repro.traces import PROFILES, generate_trace
from repro.workload import DAYS


class TestControllerUnit:
    def build(self):
        sim = Simulator()
        net = Network(sim, latency=FixedLatency(0.001))
        fs = FileStore.from_catalog({f"/d{i}": 100 for i in range(50)})
        protocol = adaptive_lease(state_budget_bytes=280)  # 10 entries
        server = ServerSite(sim, net, "server", fs, accel=protocol.accelerator)
        return sim, server

    def test_validation(self):
        sim, server = self.build()
        with pytest.raises(ValueError):
            AdaptiveLeaseController(sim, server, state_budget_bytes=0)
        with pytest.raises(ValueError):
            AdaptiveLeaseController(sim, server, 100, shrink=1.5)
        with pytest.raises(ValueError):
            AdaptiveLeaseController(
                sim, server, 100, min_lease=100.0, initial_lease=10.0
            )

    @pytest.mark.parametrize(
        "period", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_period_must_be_finite_and_positive(self, period):
        sim, server = self.build()
        with pytest.raises(ValueError):
            AdaptiveLeaseController(sim, server, 100, period=period)

    def test_lease_shrinks_over_budget(self):
        sim, server = self.build()
        controller = AdaptiveLeaseController(
            sim, server, state_budget_bytes=280, period=10.0,
            initial_lease=1000.0,
        )
        # Register 20 sites (560 bytes > 280 budget).
        for i in range(20):
            server.table.register(f"/d{i}", f"c{i}", "p", now=0.0,
                                  lease_expires=1e9)
        sim.run(until=10.5)
        controller.stop()
        sim.run()
        assert controller.lease < 1000.0
        assert controller.history

    def test_lease_grows_when_under_budget(self):
        sim, server = self.build()
        controller = AdaptiveLeaseController(
            sim, server, state_budget_bytes=10_000, period=10.0,
            initial_lease=100.0, max_lease=500.0,
        )
        sim.run(until=80.5)
        controller.stop()
        sim.run()
        assert controller.lease == 500.0  # grew to the clamp (100 * 1.3^n)

    def test_override_drives_granted_leases(self):
        sim, server = self.build()
        server.lease_override = 42.0
        from repro.http import HttpResponse, make_get

        inbox = []
        server.network.register("proxy", inbox.append)
        server.network.send(make_get("proxy", "server", "/d0", client_id="c1"))
        sim.run()
        (reply,) = [m for m in inbox if isinstance(m, HttpResponse)]
        assert reply.lease_expires == pytest.approx(42.0, abs=1.0)

    def test_stop_prevents_further_ticks(self):
        sim, server = self.build()
        controller = AdaptiveLeaseController(
            sim, server, state_budget_bytes=1000, period=10.0
        )
        sim.run(until=25.0)
        controller.stop()
        sim.run()
        assert sim.now == 25.0
        assert len(controller.history) == 2


class TestAdaptiveLeaseReplay:
    def test_budget_respected_end_to_end(self):
        trace = generate_trace(PROFILES["SASK"].scaled(0.04), RngRegistry(seed=3))
        budget = 8 * 1024  # ~290 entries
        result = run_experiment(
            ExperimentConfig(
                trace=trace,
                protocol=adaptive_lease(state_budget_bytes=budget),
                mean_lifetime=5 * DAYS,
            )
        )
        # The controller keeps end-of-run storage in the budget's
        # neighbourhood (it reacts within one period).
        assert result.sitelist_storage_bytes < 2 * budget
        assert result.violations == 0
        # Leases force some validation traffic.
        assert result.ims > 0

    def test_factory_validation(self):
        with pytest.raises(ValueError):
            adaptive_lease(state_budget_bytes=0)
