"""Property-based tests of network and simulator invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FixedLatency, Message, Network
from repro.sim import Simulator


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),  # src
            st.sampled_from(["a", "b", "c", "ghost"]),  # dst
            st.integers(min_value=0, max_value=10_000),  # size
        ),
        max_size=60,
    ),
    st.sets(st.sampled_from(["a", "b", "c"]), max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_message_conservation(sends, down_nodes):
    """Every send is eventually delivered or dropped — never lost."""
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.5), connect_timeout=1.0)
    received = []
    for address in ("a", "b", "c"):
        net.register(address, received.append)
    for address in down_nodes:
        net.set_down(address)
    for src, dst, size in sends:
        net.send(Message(src=src, dst=dst, size=size))
    sim.run()
    assert net.stats.total_messages + net.stats.total_dropped == len(sends)
    assert len(received) == net.stats.total_messages
    # Byte accounting covers exactly the delivered messages.
    assert net.stats.total_bytes == sum(m.size for m in received)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=80)
)
@settings(max_examples=60, deadline=None)
def test_events_process_in_time_order(delays):
    """The clock never runs backwards, whatever the schedule order."""
    sim = Simulator()
    seen = []
    for delay in delays:
        sim.call_later(delay, lambda: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)
    assert sim.now == max(delays)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_partition_is_symmetric_and_complete(n_pairs, seed):
    """Partitioned pairs drop in both directions; others deliver."""
    import random

    rng = random.Random(seed)
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.0), connect_timeout=0.5)
    nodes = [f"n{i}" for i in range(6)]
    for node in nodes:
        net.register(node, lambda m: None)
    group_a = set(rng.sample(nodes, 2))
    group_b = set(rng.sample([n for n in nodes if n not in group_a], 2))
    net.partition(group_a, group_b)
    for _ in range(n_pairs):
        src, dst = rng.sample(nodes, 2)
        cut = (src in group_a and dst in group_b) or (
            src in group_b and dst in group_a
        )
        assert net.is_reachable(src, dst) == (not cut)
        assert net.is_reachable(dst, src) == (not cut)
