"""Unit tests for the reliable (TCP + periodic retry) channel."""

import pytest

from repro.net import FixedLatency, Message, Network, ReliableChannel
from repro.sim import Simulator


def attempts(net):
    """Sends made so far: each one was refused, lost or delivered."""
    return net.stats.total_dropped + net.stats.total_messages


def deliver(sim, channel, done):
    """Deliver one a->b message, appending ``(now, delivered)`` to ``done``."""
    return channel.deliver(
        Message(src="a", dst="b", size=10),
        lambda delivered: done.append((sim.now, delivered)),
    )


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
    done = []
    deliver(sim, channel, done)
    sim.run()
    assert done == [(1.0, True)]
    assert attempts(net) == 1


def test_on_done_gets_its_arguments():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(1.0))
    net.register("b", lambda m: None)
    channel = ReliableChannel(net)
    calls = []
    channel.deliver(
        Message(src="a", dst="b", size=10),
        lambda delivered, tag: calls.append((delivered, tag)),
        "tag",
    )
    sim.run()
    assert calls == [(True, "tag")]


def test_retries_until_node_recovers():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.0), connect_timeout=1.0)
    inbox = []
    net.register("b", inbox.append)
    net.set_down("b")
    channel = ReliableChannel(net, retry_interval=10.0)
    done = []
    deliver(sim, channel, done)
    # Recover the destination at t=25; attempts at t=0(fail@1), 11(fail@12),
    # 22(fail@23), 33(ok).
    sim.call_later(25.0, lambda: net.set_up("b"))
    sim.run()
    assert len(inbox) == 1
    assert attempts(net) == 4
    assert done == [(pytest.approx(33.0), True)]


def test_retry_through_partition_heal():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.0), connect_timeout=1.0)
    inbox = []
    net.register("a", lambda m: None)
    net.register("b", inbox.append)
    net.partition({"a"}, {"b"})
    channel = ReliableChannel(net, retry_interval=5.0)
    done = []
    deliver(sim, channel, done)
    # Attempts at t=0 (fail@1) and 6 (fail@7); healed at 7, so the
    # attempt at 12 lands.
    sim.call_later(7.0, net.heal)
    sim.run()
    assert len(inbox) == 1
    assert attempts(net) == 3
    assert done == [(12.0, True)]


def test_max_retries_exhaustion_gives_up():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.0), connect_timeout=1.0)
    net.register("b", lambda m: None)
    net.set_down("b")
    channel = ReliableChannel(net, retry_interval=2.0, max_retries=2)
    done = []
    deliver(sim, channel, done)
    sim.run()
    # Attempts at t=0 (fail@1), 3 (fail@4) and 6 (fail@7): the initial
    # attempt plus 2 retries, then the channel gives up.
    assert attempts(net) == 3
    assert done == [(7.0, False)]


def test_cancel_stops_retrying_and_drops_the_outcome():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.0), connect_timeout=1.0)
    net.register("b", lambda m: None)
    net.set_down("b")
    channel = ReliableChannel(net, retry_interval=2.0)
    done = []
    delivery = deliver(sim, channel, done)
    sim.run(until=2.0)  # the first attempt failed; a retry is due at 3
    delivery.cancel()
    net.set_up("b")
    sim.run()
    assert attempts(net) == 1
    assert done == []
