"""Unit tests for the network fabric: delivery, failures, partitions."""

import random

import pytest

from repro.net import FixedLatency, LinkFault, Message, Network
from repro.sim import Simulator


def make_net(latency=0.0, connect_timeout=3.0):
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(latency), connect_timeout=connect_timeout)
    return sim, net


def test_register_and_deliver():
    sim, net = make_net(latency=1.0)
    inbox = []
    net.register("b", inbox.append)
    net.send(Message(src="a", dst="b", size=100))
    sim.run()
    assert len(inbox) == 1
    assert inbox[0].src == "a"
    assert sim.now == 1.0


def test_duplicate_registration_rejected():
    sim, net = make_net()
    net.register("x", lambda m: None)
    with pytest.raises(ValueError):
        net.register("x", lambda m: None)


def test_send_event_succeeds_at_delivery_time():
    """``on_sent(True, *args)`` runs at delivery, right after the handler."""
    sim, net = make_net(latency=2.0)
    calls = []
    net.register("b", lambda m: calls.append(("handler", sim.now, m)))
    msg = Message(src="a", dst="b", size=10)
    net.send(msg, lambda ok, m: calls.append(("on_sent", sim.now, ok, m)), msg)
    sim.run()
    assert calls == [("handler", 2.0, msg), ("on_sent", 2.0, True, msg)]


def test_send_to_unknown_address_fails_after_timeout():
    sim, net = make_net(connect_timeout=3.0)
    outcomes = []
    net.send(
        Message(src="a", dst="ghost", size=10),
        lambda ok: outcomes.append((sim.now, ok)),
    )
    sim.run()
    assert outcomes == [(3.0, False)]
    # Refused at connect time, not lost in flight.
    assert net.stats.total_dropped == 1 and net.stats.messages_lost == 0


def test_close_detaches_every_node():
    sim, net = make_net(connect_timeout=3.0)
    net.register("b", lambda m: None)
    net.close()
    assert not net.is_up("b")
    outcomes = []
    net.send(Message(src="a", dst="b", size=10), outcomes.append)
    sim.run()
    assert outcomes == [False]
    net.register("b", lambda m: None)  # the address is free again


def test_fire_and_forget_failure_does_not_crash_run():
    sim, net = make_net()
    net.send(Message(src="a", dst="ghost", size=10))
    sim.run()  # must not raise
    assert net.stats.total_dropped == 1


def test_send_to_down_node_fails():
    sim, net = make_net()
    net.register("b", lambda m: None)
    net.set_down("b")
    failures = []
    net.send(
        Message(src="a", dst="b", size=10),
        lambda ok: failures.append(sim.now) if not ok else None,
    )
    sim.run()
    assert failures == [3.0]
    assert not net.is_up("b")


def test_node_recovery_restores_delivery():
    sim, net = make_net()
    inbox = []
    net.register("b", inbox.append)
    net.set_down("b")
    net.set_up("b")
    net.send(Message(src="a", dst="b", size=10))
    sim.run()
    assert len(inbox) == 1
    assert net.is_up("b")


def test_partition_blocks_both_directions():
    sim, net = make_net()
    net.register("a", lambda m: None)
    net.register("b", lambda m: None)
    net.partition({"a"}, {"b"})
    assert not net.is_reachable("a", "b")
    assert not net.is_reachable("b", "a")
    net.send(Message(src="a", dst="b", size=10))
    net.send(Message(src="b", dst="a", size=10))
    sim.run()
    assert net.stats.total_dropped == 2
    assert net.stats.total_messages == 0


def test_partition_leaves_other_pairs_connected():
    sim, net = make_net()
    inbox = []
    net.register("a", lambda m: None)
    net.register("b", lambda m: None)
    net.register("c", inbox.append)
    net.partition({"a"}, {"b"})
    assert net.is_reachable("a", "c")
    net.send(Message(src="a", dst="c", size=10))
    sim.run()
    assert len(inbox) == 1


def test_heal_restores_connectivity():
    sim, net = make_net()
    inbox = []
    net.register("a", lambda m: None)
    net.register("b", inbox.append)
    net.partition({"a"}, {"b"})
    net.heal()
    net.send(Message(src="a", dst="b", size=10))
    sim.run()
    assert len(inbox) == 1


def test_message_lost_in_flight_when_dst_dies():
    sim, net = make_net(latency=5.0)
    inbox = []
    net.register("b", inbox.append)
    net.send(Message(src="a", dst="b", size=10))
    sim.call_later(1.0, lambda: net.set_down("b"))
    sim.run()
    assert inbox == []
    assert net.stats.total_dropped == 1


def test_stats_account_messages_and_bytes_by_category():
    sim, net = make_net()
    net.register("b", lambda m: None)
    net.send(Message(src="a", dst="b", size=100, category="get"))
    net.send(Message(src="a", dst="b", size=50, category="get"))
    net.send(Message(src="a", dst="b", size=7, category="invalidate"))
    sim.run()
    assert net.stats.messages("get") == 2
    assert net.stats.bytes("get") == 150
    assert net.stats.messages("invalidate") == 1
    assert net.stats.total_messages == 3
    assert net.stats.total_bytes == 157
    assert net.stats.by_category() == {"get": 2, "invalidate": 1}
    assert net.stats.bytes_by_category() == {"get": 150, "invalidate": 7}


def test_negative_message_size_rejected():
    with pytest.raises(ValueError):
        Message(src="a", dst="b", size=-1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"jitter": float("nan")},
        {"jitter": float("inf")},
        {"extra_delay": float("inf")},
        {"extra_delay": float("nan")},
    ],
    ids=["jitter-nan", "jitter-inf", "extra-delay-inf", "extra-delay-nan"],
)
def test_link_fault_rejects_non_finite_delays(kwargs):
    with pytest.raises(ValueError, match="finite"):
        LinkFault(**kwargs)


def test_message_ids_unique():
    m1 = Message(src="a", dst="b", size=1)
    m2 = Message(src="a", dst="b", size=1)
    assert m1.msg_id != m2.msg_id


def _replay_sends(callback, fault):
    """Send one fixed message sequence; return (stats, handler calls, outcomes).

    The sequence covers every outcome a send can have: delivery, refusal
    at connect time (unknown, down and partitioned destinations), loss in
    flight (destination dies, partition forms) and, under ``fault``,
    link-fault drops, jitter and duplicates.  With ``callback`` each send
    passes an ``on_sent`` that records ``(time, delivered, i)``.
    """
    sim, net = make_net(latency=0.5)
    calls = []
    outcomes = []
    for name in ("b", "c", "d"):
        net.register(name, lambda m, name=name: calls.append((sim.now, name, m.size)))
    if fault is not None:
        net.set_link_fault("a", "*", fault, rng=random.Random(5))
    net.set_down("d")

    def on_sent(delivered, i):
        outcomes.append((sim.now, delivered, i))

    def send(i):
        dst = ("b", "c", "d", "ghost", "b")[i % 5]
        message = Message(src="a", dst=dst, size=i + 1)
        if callback:
            net.send(message, on_sent, i)
        else:
            net.send(message)

    for i in range(300):
        sim.call_later(i * 0.1, send, i)
    sim.call_later(5.05, net.set_down, "c")
    sim.call_later(8.0, net.set_up, "c")
    sim.call_later(12.02, net.partition, {"a"}, {"b"})
    sim.call_later(15.0, net.heal)
    sim.run()
    stats = net.stats
    summary = (
        stats.messages_sent,
        stats.total_messages,
        stats.total_bytes,
        stats.total_dropped,
        stats.messages_lost,
        stats.lost_by_reason(),
        stats.duplicates_delivered,
    )
    return summary, calls, outcomes


@pytest.mark.parametrize(
    "fault",
    [None, LinkFault(drop_prob=0.2, dup_prob=0.2, jitter=0.3)],
    ids=["no-fault", "drop-dup-jitter"],
)
def test_callback_changes_nothing_but_the_callback(fault):
    summary, calls, outcomes = _replay_sends(True, fault)
    assert _replay_sends(False, fault) == (summary, calls, [])
    lost_by_reason = summary[5]
    assert "destination died in flight" in lost_by_reason
    assert "partition formed in flight" in lost_by_reason
    if fault is not None:
        assert lost_by_reason["link fault"] > 0
        assert summary[6] > 0
    # Every send reports once; a duplicate delivery reports nothing.
    assert sorted(i for _t, _ok, i in outcomes) == list(range(300))
    assert sum(ok for _t, ok, _i in outcomes) == summary[1]
    assert len(outcomes) - summary[1] == summary[3]
