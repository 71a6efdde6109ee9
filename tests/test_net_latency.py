"""Unit tests for the latency models."""

import random

import pytest

from repro.net import FixedLatency, LanModel, Message, WanModel


def msg(size=1000):
    return Message(src="a", dst="b", size=size)


class TestFixedLatency:
    def test_constant(self):
        model = FixedLatency(0.25)
        assert model.delay(msg(1)) == 0.25
        assert model.delay(msg(10**9)) == 0.25

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FixedLatency(-0.1)


class TestLanModel:
    def test_propagation_plus_transmission(self):
        model = LanModel(propagation=0.001, bandwidth_bps=8000.0)
        # 1000 bytes = 8000 bits = 1 second at 8 kb/s.
        assert model.delay(msg(1000)) == pytest.approx(1.001)

    def test_default_is_fast_ethernet_scale(self):
        model = LanModel()
        # A 10 KB transfer on 100 Mb/s: sub-millisecond transmission.
        assert model.delay(msg(10 * 1024)) < 0.005

    def test_size_scale_divides_transmission_time(self):
        plain = LanModel(propagation=0.0, bandwidth_bps=1e6)
        scaled = LanModel(propagation=0.0, bandwidth_bps=1e6, size_scale=100.0)
        assert scaled.delay(msg(100_000)) == pytest.approx(
            plain.delay(msg(100_000)) / 100.0
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            LanModel(bandwidth_bps=0)
        with pytest.raises(ValueError):
            LanModel(size_scale=0)


class TestWanModel:
    def test_base_delay_dominates_small_messages(self):
        model = WanModel(base_delay=0.08, jitter=0.0, bandwidth_bps=1e9)
        assert model.delay(msg(100)) == pytest.approx(0.08, rel=0.01)

    def test_jitter_varies_but_is_bounded_below(self):
        model = WanModel(base_delay=0.05, jitter=0.01, rng=random.Random(1))
        delays = [model.delay(msg(100)) for _ in range(200)]
        assert all(d >= 0.05 for d in delays)
        assert len(set(delays)) > 100  # actually random

    def test_jitter_deterministic_per_seed(self):
        a = WanModel(jitter=0.02, rng=random.Random(7))
        b = WanModel(jitter=0.02, rng=random.Random(7))
        assert [a.delay(msg()) for _ in range(10)] == [
            b.delay(msg()) for _ in range(10)
        ]

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            WanModel(bandwidth_bps=-1)


class TestEventCancel:
    """Kernel cancellation edge cases surfaced by the reply-timeout fix."""

    def test_cancelled_timeout_does_not_advance_clock(self):
        from repro.sim import Simulator

        sim = Simulator()
        timer = sim.call_later(100.0, lambda: None)
        sim.call_later(1.0, lambda: None)
        sim.cancel(timer)
        sim.run()
        assert sim.now == 1.0

    def test_peek_skips_cancelled_head(self):
        from repro.sim import Simulator

        sim = Simulator()
        first = sim.call_later(1.0, lambda: None)
        sim.call_later(5.0, lambda: None)
        sim.cancel(first)
        assert sim.peek() == 5.0
