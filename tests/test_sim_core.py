"""Unit tests for the simulation kernel's event loop."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=100.0)
    assert sim.now == 100.0


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


def test_unhandled_failure_propagates_from_run():
    sim = Simulator()

    def boom():
        raise RuntimeError("boom")

    sim.call_later(1.0, boom)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert sim.now == 1.0


def test_callbacks_run_on_processing():
    sim = Simulator()
    seen = []
    handle = sim.call_later(1.0, seen.append, "v")
    assert seen == []
    sim.run()
    assert seen == ["v"]
    assert handle[2] is None  # a processed entry carries the cancelled mark


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
    sim.call_later(4.0, lambda: None)
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


# ---------------------------------------------------------------------------
# cancellation, scheduling guards and compaction
# ---------------------------------------------------------------------------


def test_call_later_cancel_is_inert():
    sim = Simulator()
    fired = []
    handle = sim.call_later(1.0, fired.append, True)
    sim.cancel(handle)
    sim.run()
    assert fired == []
    assert sim.now == 0.0  # cancelled slots never advance the clock


def test_cancel_after_firing_or_twice_is_a_no_op():
    sim = Simulator()
    fired = []
    done = sim.call_later(1.0, fired.append, "done")
    doomed = sim.call_later(2.0, fired.append, "doomed")
    later = sim.call_later(3.0, fired.append, "later")
    sim.run(until=1.5)
    sim.cancel(doomed)
    counted = sim._cancelled_queued
    sim.cancel(done)  # already fired
    sim.cancel(doomed)  # already cancelled
    assert sim._cancelled_queued == counted == 1
    sim.run()
    assert fired == ["done", "later"]
    assert sim._cancelled_queued == 0
    sim.cancel(later)  # fired after the first cancel
    assert sim._cancelled_queued == 0


def test_cancel_of_fired_entries_never_triggers_compaction():
    sim = Simulator()
    handles = [sim.call_later(float(i), lambda: None) for i in range(200)]
    sim.run(until=150.5)
    live = sim.queue_depth
    for handle in handles[:151]:
        sim.cancel(handle)
    assert sim._cancelled_queued == 0
    assert sim.queue_depth == live == 49


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
        sim.call_later(delay, lambda: None)
    with pytest.raises(ValueError):
        sim.call_at(delay, lambda: None)
    assert sim.queue_depth == 0


@pytest.mark.parametrize("until", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_run_until_rejected(until):
    # A NaN ``until`` compares false with every time, so it used to run
    # the whole queue; an infinite one left ``now`` at inf, where no
    # call_at can succeed.  Both are refused before anything runs.
    sim = Simulator()
    fired = []
    sim.call_later(10.0, fired.append, "event")
    with pytest.raises(ValueError, match="until"):
        sim.run(until=until)
    assert fired == [] and sim.now == 0.0
    sim.call_at(1.0, fired.append, "after")
    sim.run()
    assert fired == ["after", "event"]


@pytest.mark.parametrize(
    "start", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"]
)
def test_non_finite_start_time_rejected(start):
    # A NaN or infinite clock would break the heap order of every entry
    # scheduled from it.
    with pytest.raises(ValueError, match="start_time"):
        Simulator(start_time=start)


def test_call_at_in_the_past_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError, match="5.0"):
        sim.call_at(4.999, lambda: None)
    assert sim.queue_depth == 0
    fired = []
    sim.call_at(5.0, fired.append, sim.now)  # now itself is allowed
    sim.run()
    assert fired == [5.0]


def test_call_at_keeps_fifo_order_with_call_later():
    """At one instant, ``call_at`` and ``call_later`` entries run in the
    order they were scheduled, whichever form scheduled them."""
    sim = Simulator()
    order = []
    sim.call_at(2.0, order.append, "at-1")
    sim.call_later(2.0, order.append, "later-1")
    sim.call_at(2.0, order.append, "at-2")
    sim.call_at(1.0, order.append, "at-first")
    sim.call_later(2.0, order.append, "later-2")
    sim.run()
    assert order == ["at-first", "at-1", "later-1", "at-2", "later-2"]
    assert sim.now == 2.0


def test_cancelled_timers_queue_stays_bounded():
    # Regression: cancelled entries were only discarded when they reached
    # the queue head, so a retry loop that cancels far-future timers on
    # every iteration grew the queue without bound.  Compaction keeps the
    # depth within twice the *live* entry count, plus the one entry a
    # cancel can leave before it compacts.
    sim = Simulator()
    fired = []
    sim.call_later(1e9, fired.append, "live")  # one live far-future entry
    for _ in range(5000):
        handle = sim.call_later(1e6, lambda: None)
        sim.cancel(handle)
        assert sim.queue_depth <= 2 * 1 + 1
    sim.run()
    assert fired == ["live"]  # compaction never dropped the live entry


def test_reply_timers_keep_the_queue_live_proportional():
    """The replay's shape: a few live near-term chains, and one far-future
    reply timeout armed before each step and cancelled after it.

    The dead timers must never outgrow the live entries, and compacting
    them must leave the live ones firing in (time, insertion) order.
    """
    sim = Simulator()
    pending = set()  # (time, insertion index) of each live entry
    fired = []
    counter = [0]

    def arm(delay, hops):
        counter[0] += 1
        key = (sim.now + delay, counter[0])
        pending.add(key)
        sim.call_later(delay, hop, key, delay, hops)

    def hop(key, delay, hops):
        pending.remove(key)
        fired.append(key)
        if hops:
            arm(delay, hops - 1)

    # Binary-fraction periods, so chains meet at the same instants.
    for delay, hops in ((0.25, 400), (0.5, 300), (0.125, 500)):
        arm(delay, hops)
    timeouts = []
    while pending:
        handle = sim.call_later(30.0, timeouts.append, sim.now)
        sim.step()
        sim.cancel(handle)
        assert sim.queue_depth <= 2 * len(pending) + 1
    sim.run()
    assert timeouts == []
    assert len(fired) == 401 + 301 + 501
    assert fired == sorted(fired)


def test_compaction_preserves_processing_order():
    sim = Simulator()
    order = []
    keep = []
    for i in range(200):
        handle = sim.call_later(float(i), order.append, i)
        if i % 3 == 0:
            keep.append(i)
        else:
            sim.cancel(handle)
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
    sim.call_later(1.0, lambda: None)
    sim.call_at(2.0, lambda: None)
    assert sim.queue_depth == 2
    sim.run()
    assert sim.queue_depth == 0


# ---------------------------------------------------------------------------
# processing order: a reference priority queue over every scheduling call
# ---------------------------------------------------------------------------

_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 128.0, 1e6]),  # ties between entries
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
# (kind, delay, keep): three draws in four cancel the entry.
_KEEP = st.integers(min_value=0, max_value=3).map(lambda k: k == 3)
_SCHEDULE = st.tuples(st.just("call_later"), _DELAYS, _KEEP)
_ANY_OP = st.tuples(st.sampled_from(["call_later", "sleep"]), _DELAYS, _KEEP)


@settings(max_examples=60, deadline=None)
@given(
    first=st.lists(_SCHEDULE, max_size=200),
    rest=st.lists(_ANY_OP, max_size=150),
)
def test_processing_order_matches_reference_queue(first, rest):
    """Live entries fire in (time, insertion) order.

    One op loop performs ``first + rest`` in order: ``call_later``
    schedules an entry now, and each ``sleep`` is a ``call_later`` that
    resumes the loop, so the ops after it are scheduled at a later
    clock.  Entries whose ``keep`` flag is off are cancelled before the
    next sleep and at the end of each list.  ``first`` holds no sleep
    and cancels most of the entries it schedules, so cancelled entries
    come to outnumber live ones and the queue is compacted.  A reference
    model keys every entry by (time, insertion index): each entry must
    be the model's minimum live key when it fires, and ``peek()`` must
    report the model's first time between steps.
    """
    doomed_first = sum(not keep for _kind, _delay, keep in first)
    assume(2 * doomed_first > len(first))
    sim = Simulator()
    pending = {}  # insertion index -> (time, index)
    fired = []
    counter = [0]
    compacted = [False]

    def add(time):
        counter[0] += 1
        pending[counter[0]] = (time, counter[0])
        return counter[0]

    def fire(index):
        key = pending.pop(index)
        assert not pending or key < min(pending.values())
        fired.append(key)

    def cancel_all(handles):
        for index, handle in handles:
            depth = sim.queue_depth
            sim.cancel(handle)
            del pending[index]
            if sim.queue_depth < depth:
                compacted[0] = True

    ops = iter([*first, None, *rest, None])  # None ends a list
    doomed = []

    def resume(woken=None):
        """Run ops until a sleep schedules the next resume (or none is left)."""
        if woken is not None:
            fire(woken)
        for op in ops:
            if op is None:
                cancel_all(doomed)
                doomed.clear()
                continue
            kind, delay, keep = op
            if kind == "sleep":
                cancel_all(doomed)
                doomed.clear()
                sim.call_later(delay, resume, add(sim.now + delay))
                return
            index = add(sim.now + delay)
            handle = sim.call_later(delay, fire, index)
            if not keep:
                doomed.append((index, handle))

    resume()
    while pending:
        assert sim.peek() == min(pending.values())[0]
        sim.step()
    assert sim.peek() == float("inf")
    assert [key[0] for key in fired] == sorted(key[0] for key in fired)
    assert compacted[0]
