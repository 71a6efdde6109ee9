"""Unit tests for the reliable (TCP + periodic retry) channel."""

import pytest

from repro.net import (
    DeliveryFailed,
    FixedLatency,
    Message,
    Network,
    ReliableChannel,
)
from repro.sim import Simulator


def test_retry_interval_must_be_positive():
    sim = Simulator()
    net = Network(sim)
    with pytest.raises(ValueError):
        ReliableChannel(net, retry_interval=0)


def test_immediate_delivery_single_attempt():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(1.0))
    net.register("b", lambda m: None)
    channel = ReliableChannel(net, retry_interval=30.0)
    reports = []

    def sender(sim):
        report = yield from channel.deliver(Message(src="a", dst="b", size=10))
        reports.append(report)

    sim.process(sender(sim))
    sim.run()
    assert reports[0].attempts == 1
    assert reports[0].delivered_at == 1.0


def test_retries_until_node_recovers():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.0), connect_timeout=1.0)
    inbox = []
    net.register("b", inbox.append)
    net.set_down("b")
    channel = ReliableChannel(net, retry_interval=10.0)
    reports = []

    def sender(sim):
        report = yield from channel.deliver(Message(src="a", dst="b", size=10))
        reports.append(report)

    sim.process(sender(sim))
    # Recover the destination at t=25; attempts at t=0(fail@1), 11(fail@12),
    # 22(fail@23), 33(ok).
    sim.call_later(25.0, lambda: net.set_up("b"))
    sim.run()
    assert len(inbox) == 1
    assert reports[0].attempts == 4
    assert reports[0].delivered_at == pytest.approx(33.0)


def test_retry_through_partition_heal():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.0), connect_timeout=1.0)
    inbox = []
    net.register("a", lambda m: None)
    net.register("b", inbox.append)
    net.partition({"a"}, {"b"})
    channel = ReliableChannel(net, retry_interval=5.0)

    def sender(sim):
        yield from channel.deliver(Message(src="a", dst="b", size=10))

    sim.process(sender(sim))
    sim.call_later(7.0, net.heal)
    sim.run()
    assert len(inbox) == 1


def test_max_retries_exhaustion_raises():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.0), connect_timeout=1.0)
    net.register("b", lambda m: None)
    net.set_down("b")
    channel = ReliableChannel(net, retry_interval=2.0, max_retries=2)
    failures = []

    def sender(sim):
        try:
            yield from channel.deliver(Message(src="a", dst="b", size=10))
        except DeliveryFailed as exc:
            failures.append(exc.attempts)

    sim.process(sender(sim))
    sim.run()
    assert failures == [3]  # initial attempt + 2 retries
