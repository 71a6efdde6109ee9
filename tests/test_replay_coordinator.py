"""Unit tests for the lock-step time coordinator."""

import pytest

from repro.core import invalidation
from repro.metrics import ReplayCounters
from repro.net import FixedLatency, Network
from repro.proxy import ProxyCache
from repro.replay import CoordinatorError, PseudoClient, TimeCoordinator
from repro.server import FileStore, ServerSite
from repro.sim import EventTracer, Simulator
from repro.traces import TraceRecord
from repro.workload import Modification, Modifier


def busy_for(sim, seconds, log=None, name=None):
    """A participant whose work in every interval takes ``seconds``."""

    def participant(start, end, arrive):
        if log is not None:
            log.append((name, start, sim.now) if name else (start, end))
        arrive(sim.now + seconds)
        return True

    return participant


def test_interval_validation():
    with pytest.raises(ValueError):
        TimeCoordinator(Simulator(), interval=0)


def test_requires_participants():
    sim = Simulator()
    coord = TimeCoordinator(sim)
    with pytest.raises(ValueError):
        coord.start(100.0)
    assert sim.queue_depth == 0  # nothing started


def test_intervals_cover_duration():
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=300.0)
    windows = []
    coord.register(busy_for(sim, 1.0, windows))
    coord.start(1000.0)
    sim.run()
    assert windows == [(0.0, 300.0), (300.0, 600.0), (600.0, 900.0), (900.0, 1000.0)]
    assert coord.intervals_completed == 4
    assert coord.trace_time == 1000.0
    assert coord.finished


def test_barrier_waits_for_slowest_participant():
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=100.0)
    starts = []
    coord.register(busy_for(sim, 1.0, starts, "fast"))
    coord.register(busy_for(sim, 10.0, starts, "slow"))
    coord.start(200.0)
    sim.run()
    # Interval 2 starts only after slow finished interval 1 (wall 10.0).
    assert ("fast", 100.0, 10.0) in starts
    assert sim.now == 20.0  # two intervals, each paced by `slow`


def test_barrier_waits_for_an_arrival_that_comes_late():
    """The deadline is the latest arrival instant, not the last caller's."""
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=100.0)
    starts = []

    def late(start, end, arrive):
        # Reports at wall 3 that its work ended at wall 4.
        sim.call_later(3.0, arrive, sim.now + 4.0)
        return True

    coord.register(late)
    coord.register(busy_for(sim, 6.0, starts, "early"))
    coord.start(200.0)
    sim.run()
    assert starts == [("early", 0.0, 0.0), ("early", 100.0, 6.0)]
    assert sim.now == 12.0


def test_final_partial_interval_counts():
    """duration % interval != 0: the short tail interval still counts."""
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=300.0)
    windows = []
    coord.register(busy_for(sim, 1.0, windows))
    coord.start(750.0)
    sim.run()
    assert windows == [(0.0, 300.0), (300.0, 600.0), (600.0, 750.0)]
    assert coord.intervals_completed == 3
    assert coord.trace_time == 750.0


def test_duration_shorter_than_interval():
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=300.0)
    windows = []
    coord.register(busy_for(sim, 1.0, windows))
    coord.start(10.0)
    sim.run()
    assert windows == [(0.0, 10.0)]
    assert coord.intervals_completed == 1
    assert coord.trace_time == 10.0


def test_participant_failure_mid_interval():
    """A participant's exception reaches the caller and stops the run;
    the progress counters stay at the last *completed* interval."""
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=100.0)

    def flaky_step(start, arrive):
        if start >= 100.0:  # fails during the second interval
            raise RuntimeError("driver lost its trace shard")
        arrive(sim.now + 0.5)

    def flaky(start, end, arrive):
        sim.call_later(0.5, flaky_step, start, arrive)
        return True

    coord.register(busy_for(sim, 1.0))
    coord.register(flaky)
    coord.start(300.0)
    with pytest.raises(RuntimeError, match="driver lost its trace shard"):
        sim.run()
    assert coord.intervals_completed == 1
    assert coord.trace_time == 100.0
    # The simulator stays usable, and the run stays stopped.
    sim.run()
    assert coord.intervals_completed == 1
    assert not coord.finished


def test_two_participants_failing_same_interval():
    """Each failure reaches the caller in its own step; neither lets the
    interval complete."""
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=100.0)

    def fail(message):
        raise RuntimeError(message)

    def failing(delay, message):
        def participant(start, end, arrive):
            sim.call_later(delay, fail, message)
            return True

        return participant

    coord.register(failing(0.5, "first"))
    coord.register(failing(1.0, "second"))
    coord.start(300.0)
    with pytest.raises(RuntimeError, match="first"):
        sim.run()
    assert coord.intervals_completed == 0
    assert coord.trace_time == 0.0
    with pytest.raises(RuntimeError, match="second"):
        sim.run()
    sim.run()
    assert coord.intervals_completed == 0
    assert coord.trace_time == 0.0


def test_interval_too_small_to_advance():
    sim = Simulator(start_time=0.0)
    coord = TimeCoordinator(sim, interval=1e-13)
    coord.trace_time = 1e16  # resume far into a huge trace
    coord.register(lambda start, end, arrive: False)
    with pytest.raises(CoordinatorError, match="too small"):
        coord.start(1e16 + 10.0)


def test_wall_clock_decoupled_from_trace_time():
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=300.0)
    coord.register(busy_for(sim, 2.0))
    coord.start(3000.0)
    sim.run()
    # 10 intervals x 2s wall each: trace time 3000, wall time 20.
    assert coord.trace_time == 3000.0
    assert sim.now == pytest.approx(20.0)


def test_idle_intervals_schedule_no_events():
    """Intervals in which no participant is busy cost no kernel event:
    1,000 intervals with one busy one run exactly one."""
    sim = Simulator()
    tracer = EventTracer(sim)
    coord = TimeCoordinator(sim, interval=100.0)
    calls = []

    def participant(start, end, arrive):
        calls.append(start)
        if start != 300.0:
            return False
        arrive(sim.now + 1.0)
        return True

    coord.register(participant)
    coord.start(100_000.0)
    sim.run()
    assert len(calls) == 1000
    assert coord.intervals_completed == 1000
    assert coord.trace_time == 100_000.0
    assert sim.now == 1.0
    # The busy interval's deadline.
    assert tracer.total == 1


def test_close_at_barrier_raises_nothing():
    """A run stopped while it waits at its barrier raises nothing, counts
    no interval, and finishes when the simulator is run on."""
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=100.0)
    coord.register(busy_for(sim, 1.0))
    coord.start(300.0)
    sim.run(until=0.5)  # suspended at the first interval's barrier
    assert coord.intervals_completed == 0
    sim.run()
    assert coord.intervals_completed == 3 and sim.now == 3.0


def test_inline_arrivals_still_end_at_the_deadline():
    """Only the modifier is busy, and it arrives before returning: the
    next interval still starts at the end of its per-touch overhead."""
    sim = Simulator()
    tracer = EventTracer(sim)
    coord = TimeCoordinator(sim, interval=10.0)
    starts = []

    def observer(start, end, arrive):
        starts.append((start, sim.now))
        return False

    modifier = Modifier(
        sim, [Modification(5.0, "/a")], touch=lambda url: None, overhead=0.5
    )
    coord.register(observer)
    coord.register(modifier.participant)
    coord.start(20.0)
    assert modifier.modifications_applied == 1  # applied inline
    sim.run()
    assert starts == [(0.0, 0.0), (10.0, 0.5)]
    assert tracer.total == 1  # the one deadline


def test_inline_arrivals_at_now_take_one_event():
    """A busy interval whose work takes no wall time still ends in an
    event of its own (the deadline), so it ends where it always has."""
    sim = Simulator()
    tracer = EventTracer(sim)
    coord = TimeCoordinator(sim, interval=10.0)
    coord.register(busy_for(sim, 0.0))
    coord.start(30.0)
    assert coord.intervals_completed == 0
    sim.run()
    assert coord.intervals_completed == 3 and sim.now == 0.0
    assert tracer.total == 3


def test_pseudo_client_has_nothing_due():
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.001))
    protocol = invalidation()
    ServerSite(sim, net, "server", FileStore.from_catalog({"/a": 1000}),
               accel=protocol.accelerator)
    proxy = ProxyCache(sim, net, "proxy-0", "server",
                       policy=protocol.client_policy)
    counters = ReplayCounters()
    client = PseudoClient(proxy, [TraceRecord(150.0, "c1", "/a")], counters)
    arrivals = []
    assert client.participant(0.0, 100.0, arrivals.append) is False
    assert sim.queue_depth == 0  # nothing started
    assert client.participant(100.0, 200.0, arrivals.append) is True
    sim.run()
    assert counters.requests == 1
    (arrival,) = arrivals
    # The request's end (the last event) plus think time, drawn as
    # 0.5-1.5 x think_time.
    assert 0.5 <= arrival - sim.now <= 1.5
    assert client.participant(200.0, 300.0, arrivals.append) is False


def test_modifier_has_nothing_due():
    sim = Simulator()
    touched = []
    arrivals = []
    modifier = Modifier(sim, [Modification(5.0, "/a")], touch=touched.append)
    assert modifier.participant(0.0, 5.0, arrivals.append) is False
    assert sim.queue_depth == 0  # nothing scheduled
    assert modifier.participant(5.0, 10.0, arrivals.append) is True
    assert touched == ["/a"] and arrivals == [0.0]
    assert modifier.participant(10.0, 15.0, arrivals.append) is False
