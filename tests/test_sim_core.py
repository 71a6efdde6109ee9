"""Unit tests for the simulation kernel's event loop and events."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sim import Event, SimulationError, Simulator, Timeout
from repro.sim.core import NORMAL, URGENT


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=100.0)
    assert sim.now == 100.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0


def test_run_until_advances_clock_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_run_until_does_not_process_later_events():
    sim = Simulator()
    fired = []
    sim.call_later(10.0, lambda: fired.append(sim.now))
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run()
    assert fired == [10.0]


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=10.0)
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_event_succeed_value():
    sim = Simulator()
    evt = sim.event()
    assert not evt.triggered
    evt.succeed(7)
    assert evt.triggered
    assert evt.value == 7
    assert evt.ok


def test_event_double_trigger_rejected():
    sim = Simulator()
    evt = sim.event()
    evt.succeed()
    with pytest.raises(SimulationError):
        evt.succeed()
    with pytest.raises(SimulationError):
        evt.fail(RuntimeError())


def test_event_value_before_trigger_raises():
    sim = Simulator()
    evt = sim.event()
    with pytest.raises(SimulationError):
        _ = evt.value


def test_fail_requires_exception():
    sim = Simulator()
    evt = sim.event()
    with pytest.raises(TypeError):
        evt.fail("not an exception")


def test_unhandled_failure_propagates_from_run():
    sim = Simulator()
    evt = sim.event()
    evt.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_callbacks_run_on_processing():
    sim = Simulator()
    seen = []
    evt = sim.timeout(1.0, value="v")
    evt.callbacks.append(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["v"]
    assert evt.processed


def test_same_time_events_fifo_order():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.call_later(1.0, (lambda i=i: order.append(i)))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_events_process_in_time_order():
    sim = Simulator()
    order = []
    sim.call_later(3.0, lambda: order.append(3))
    sim.call_later(1.0, lambda: order.append(1))
    sim.call_later(2.0, lambda: order.append(2))
    sim.run()
    assert order == [1, 2, 3]


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == 4.0


def test_stop_simulation_from_callback():
    sim = Simulator()
    sim.call_later(1.0, sim.stop)
    fired = []
    sim.call_later(2.0, lambda: fired.append(True))
    sim.run()
    assert sim.now == 1.0
    assert fired == []
    sim.run()  # can continue afterwards
    assert fired == [True]


def test_timeout_repr_mentions_delay():
    sim = Simulator()
    assert "2.5" in repr(Timeout(sim, 2.5))


def test_event_repr():
    sim = Simulator()
    assert "Event" in repr(Event(sim))


# ---------------------------------------------------------------------------
# fast-path kernel additions: trigger guard, call_later, pooling, compaction
# ---------------------------------------------------------------------------


def test_trigger_on_already_triggered_raises():
    # Regression: trigger() used to skip the already-triggered guard that
    # succeed()/fail() have, silently overwriting the first value.
    sim = Simulator()
    src = sim.event().succeed("first")
    dst = sim.event()
    dst.trigger(src)
    other = sim.event().succeed("second")
    with pytest.raises(SimulationError):
        dst.trigger(other)
    assert dst.value == "first"


def test_call_later_runs_in_time_order_with_events():
    sim = Simulator()
    order = []
    sim.call_later(2.0, order.append, "cb2")
    evt = sim.timeout(1.0, value="t1")
    evt.callbacks.append(lambda e: order.append(e.value))
    sim.call_later(3.0, order.append, "cb3")
    sim.run()
    assert order == ["t1", "cb2", "cb3"]
    assert sim.now == 3.0


def test_call_later_cancel_is_inert():
    sim = Simulator()
    fired = []
    handle = sim.call_later(1.0, fired.append, True)
    handle.cancel()
    sim.run()
    assert fired == []
    assert sim.now == 0.0  # cancelled slots never advance the clock


def test_callback_handles_are_pooled():
    sim = Simulator()
    sim.call_later(1.0, lambda: None)
    sim.run()
    first = sim.call_later(1.0, lambda: None)
    # The recycled handle is handed out again instead of a new allocation.
    assert first in sim._cb_pool or not sim._cb_pool
    sim.run()
    second = sim.call_later(1.0, lambda: None)
    assert second is first
    sim.run()


def test_sleep_events_are_pooled():
    sim = Simulator()
    seen = []

    def proc(sim):
        for _ in range(3):
            evt = sim.sleep(1.0)
            seen.append(evt)
            yield evt

    sim.process(proc(sim))
    sim.run()
    assert sim.now == 3.0
    # The process grabs its next timer while the previous one is still
    # being stepped, so recycling shows up one sleep later: the third
    # sleep reuses the first timer object.
    assert seen[2] is seen[0]


def test_sleep_matches_timeout_semantics():
    sim = Simulator()
    times = []

    def proc(sim):
        yield sim.sleep(1.5)
        times.append(sim.now)
        yield sim.timeout(0.5)
        times.append(sim.now)
        yield sim.sleep(0.0)
        times.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert times == [1.5, 2.0, 2.0]


def test_negative_sleep_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.sleep(-0.1)


def test_negative_call_later_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_later(-0.1, lambda: None)


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_delays_rejected(delay):
    # A NaN key would corrupt heap order and an infinite one would never
    # fire; every scheduling entry point refuses both, like negatives.
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(delay)
    with pytest.raises(ValueError):
        sim.sleep(delay)
    with pytest.raises(ValueError):
        sim.call_later(delay, lambda: None)
    assert sim.queue_depth == 0


def test_cancelled_timers_queue_stays_bounded():
    # Regression: cancelled entries were only discarded when they reached
    # the queue head, so a retry loop that cancels far-future timers on
    # every iteration grew the queue without bound.  Threshold compaction
    # keeps the depth proportional to the *live* entry count.
    sim = Simulator()
    live = sim.timeout(1e9)  # one live far-future event
    max_depth = 0
    for _ in range(5000):
        handle = sim.call_later(1e6, lambda: None)
        handle.cancel()
        max_depth = max(max_depth, sim.queue_depth)
    assert max_depth < 2 * 64 + 16  # bounded by the compaction floor
    assert sim.queue_depth <= max_depth
    assert not live.processed  # compaction never dropped the live event


def test_compaction_preserves_processing_order():
    sim = Simulator()
    order = []
    keep = []
    for i in range(200):
        handle = sim.call_later(float(i), order.append, i)
        if i % 3 == 0:
            keep.append(i)
        else:
            handle.cancel()
    sim.run()
    assert order == keep


def test_far_horizon_events_fire_in_order():
    sim = Simulator()
    order = []
    delays = [0.5, 10_000.0, 3.0, 250.0, 100_000.0, 64.0]
    for d in delays:
        sim.call_later(d, order.append, d)
    sim.run()
    assert order == sorted(delays)
    assert sim.now == max(delays)


def test_queue_depth_counts_pending_entries():
    sim = Simulator()
    assert sim.queue_depth == 0
    sim.timeout(1.0)
    sim.call_later(2.0, lambda: None)
    assert sim.queue_depth == 2
    sim.run()
    assert sim.queue_depth == 0


# ---------------------------------------------------------------------------
# processing order: a reference priority queue over every scheduling call
# ---------------------------------------------------------------------------

_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 128.0, 1e6]),  # ties across entry kinds
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
# (kind, delay, keep): three draws in four cancel the entry.
_KEEP = st.integers(min_value=0, max_value=3).map(lambda k: k == 3)
_SCHEDULE = st.tuples(
    st.sampled_from(["call_later", "timeout", "urgent"]), _DELAYS, _KEEP
)
_ANY_OP = st.tuples(
    st.sampled_from(["call_later", "timeout", "urgent", "sleep"]), _DELAYS, _KEEP
)


@settings(max_examples=60, deadline=None)
@given(
    first=st.lists(_SCHEDULE, min_size=130, max_size=200),
    rest=st.lists(_ANY_OP, max_size=150),
)
def test_processing_order_matches_reference_queue(first, rest):
    """Live entries fire in (time, priority, insertion) order.

    One process performs ``first + rest`` in order: ``call_later``,
    ``timeout`` and ``Event.succeed(priority=URGENT)`` schedule an entry
    now, and each ``sleep`` suspends the process, so the ops after it
    are scheduled at a later clock.  Entries whose ``keep`` flag is off
    are cancelled before the next sleep and at the end of each list.
    ``first`` holds no sleep and cancels more than 64 entries, most of
    those it schedules, so the queue is compacted.  A reference model keys every entry by (time,
    priority, insertion index): each entry must be the model's minimum
    live key when it fires, and ``peek()`` must report the model's
    first time between steps.
    """
    doomed_first = sum(not keep for _kind, _delay, keep in first)
    assume(doomed_first > 64 and 2 * doomed_first > len(first))
    sim = Simulator()
    pending = {}  # insertion index -> (time, priority, index)
    fired = []
    counter = [0]
    compacted = [False]

    def add(time, priority):
        counter[0] += 1
        key = (time, priority, counter[0])
        pending[counter[0]] = key
        return counter[0]

    def fire(index):
        key = pending.pop(index)
        assert not pending or key < min(pending.values())
        fired.append(key)

    def cancel_all(handles):
        for index, handle in handles:
            depth = sim.queue_depth
            handle.cancel()
            del pending[index]
            if sim.queue_depth < depth:
                compacted[0] = True

    def driver():
        for ops in (first, rest):
            doomed = []
            for kind, delay, keep in ops:
                if kind == "sleep":
                    cancel_all(doomed)
                    doomed = []
                    index = add(sim.now + delay, NORMAL)
                    yield sim.sleep(delay)
                    fire(index)
                    continue
                if kind == "call_later":
                    index = add(sim.now + delay, NORMAL)
                    handle = sim.call_later(delay, fire, index)
                elif kind == "timeout":
                    index = add(sim.now + delay, NORMAL)
                    handle = sim.timeout(delay)
                    handle.callbacks.append(lambda _e, i=index: fire(i))
                else:
                    index = add(sim.now, URGENT)
                    handle = sim.event()
                    handle.callbacks.append(lambda _e, i=index: fire(i))
                    handle.succeed(priority=URGENT)
                if not keep:
                    doomed.append((index, handle))
            cancel_all(doomed)
        yield sim.event()  # park forever: no queue entry of its own

    sim.process(driver())
    sim.step()  # the process start; afterwards only modelled entries queue
    while pending:
        assert sim.peek() == min(pending.values())[0]
        sim.step()
    assert sim.peek() == float("inf")
    assert [key[0] for key in fired] == sorted(key[0] for key in fired)
    assert compacted[0]
