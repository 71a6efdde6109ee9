"""Unit tests for latency stats, counters and the iostat load monitor."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import IostatSampler, LatencyStats, ReplayCounters
from repro.net import FixedLatency, Network
from repro.proxy import RequestOutcome
from repro.server import FileStore, ServerSite
from repro.sim import Simulator


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats()
        assert stats.mean == 0.0
        assert stats.min == 0.0
        assert stats.max == 0.0
        assert stats.percentile(50) == 0.0

    def test_basic_aggregates(self):
        stats = LatencyStats()
        for v in (1.0, 2.0, 3.0):
            stats.record(v)
        assert stats.count == 3
        assert stats.mean == pytest.approx(2.0)
        assert stats.min == 1.0
        assert stats.max == 3.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().record(-1.0)

    def test_reservoir_size_validation(self):
        with pytest.raises(ValueError):
            LatencyStats(reservoir_size=0)

    def test_percentile_bounds(self):
        stats = LatencyStats()
        stats.record(5.0)
        with pytest.raises(ValueError):
            stats.percentile(101)
        assert stats.percentile(0) == 5.0
        assert stats.percentile(100) == 5.0

    def test_percentiles_exact_when_under_reservoir(self):
        stats = LatencyStats()
        for v in range(101):
            stats.record(float(v))
        assert stats.percentile(50) == pytest.approx(50.0)
        assert stats.percentile(90) == pytest.approx(90.0)

    def test_percentile_approximation_large_stream(self):
        stats = LatencyStats(reservoir_size=2048, seed=3)
        for v in range(20_000):
            stats.record(float(v % 1000))
        assert stats.percentile(50) == pytest.approx(500, abs=60)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=300))
    def test_mean_within_min_max(self, values):
        stats = LatencyStats()
        for v in values:
            stats.record(v)
        # Summation rounding can put the mean a few ulps outside [min, max].
        eps = 1e-9 * max(1.0, stats.max)
        assert stats.min - eps <= stats.mean <= stats.max + eps
        assert stats.count == len(values)


    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=9, max_size=200),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_record_matches_min_max_reference(self, values, size, seed):
        """``record`` agrees with a plain ``min``/``max`` reservoir sampler."""
        stats = LatencyStats(reservoir_size=size, seed=seed)
        rng = random.Random(seed)
        count, total, low, high, reservoir = 0, 0.0, math.inf, -math.inf, []
        for v in values:
            stats.record(v)
            count += 1
            total += v
            low = min(low, v)
            high = max(high, v)
            if len(reservoir) < size:
                reservoir.append(v)
            else:
                slot = rng.randrange(count)
                if slot < size:
                    reservoir[slot] = v
        assert (stats.count, stats.total) == (count, total)
        assert (stats.minimum, stats.maximum) == (low, high)
        assert stats.state_dict() == {
            "count": count, "total": total, "min": low, "max": high,
            "reservoir": reservoir, "reservoir_size": size,
        }
        # The reservoir's RNG is in the same state, so later draws agree.
        assert stats._rng.random() == rng.random()


class TestReplayCounters:
    def outcome(self, **kw):
        base = dict(
            url="/a", client_id="c", started=0.0, finished=0.5,
        )
        base.update(kw)
        return RequestOutcome(**base)

    def test_hit_and_miss_counting(self):
        counters = ReplayCounters()
        counters.record(self.outcome(hit=True, served_from_cache=True, body_bytes=10))
        counters.record(self.outcome(hit=False, transfer=True, body_bytes=20))
        assert counters.requests == 2
        assert counters.hits == 1
        assert counters.misses == 1
        assert counters.transfers == 1
        assert counters.body_bytes_transferred == 20
        assert counters.body_bytes_from_cache == 10
        assert counters.hit_ratio == 0.5

    def test_failed_requests_excluded_from_latency(self):
        counters = ReplayCounters()
        counters.record(self.outcome(failed=True))
        assert counters.failed == 1
        assert counters.latency.count == 0
        assert counters.hit_ratio == 0.0

    def test_stale_and_validation_counting(self):
        counters = ReplayCounters()
        counters.record(
            self.outcome(hit=True, served_from_cache=True, stale_served=True,
                         validated=False)
        )
        counters.record(self.outcome(hit=True, served_from_cache=True, validated=True))
        assert counters.stale_serves == 1
        assert counters.validations == 1


class TestIostatSampler:
    def test_utilization_tracks_busy_time(self):
        sim = Simulator()
        net = Network(sim, latency=FixedLatency(0.0))
        fs = FileStore.from_catalog({"/a": 100})
        server = ServerSite(sim, net, "server", fs)
        sampler = IostatSampler(sim, [server])

        # Hold the CPU for 30 of the first 60 seconds.
        server.cpu.acquire(
            lambda claim: sim.call_later(30.0, server.cpu.release, claim)
        )
        sim.run(until=60.0)
        assert sampler.cpu_utilization() == pytest.approx(0.5)

    def test_disk_rates(self):
        sim = Simulator()
        net = Network(sim, latency=FixedLatency(0.0))
        fs = FileStore.from_catalog({"/a": 100})
        server = ServerSite(sim, net, "server", fs)
        sampler = IostatSampler(sim, [server])
        server.disk_reads = 40
        server.disk_writes = 20
        sim.run(until=20.0)
        assert sampler.disk_reads_per_sec() == pytest.approx(2.0)
        assert sampler.disk_writes_per_sec() == pytest.approx(1.0)
