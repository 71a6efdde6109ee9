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


def test_interval_validation():
    with pytest.raises(ValueError):
        TimeCoordinator(Simulator(), interval=0)


def test_requires_participants():
    sim = Simulator()
    coord = TimeCoordinator(sim)
    proc = sim.process(coord.run(100.0))
    with pytest.raises(ValueError):
        sim.run()
    assert proc.triggered


def test_intervals_cover_duration():
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=300.0)
    windows = []

    def participant(start, end):
        windows.append((start, end))
        return sim.timeout(1.0)

    coord.register(participant)
    sim.process(coord.run(1000.0))
    sim.run()
    assert windows == [(0.0, 300.0), (300.0, 600.0), (600.0, 900.0), (900.0, 1000.0)]
    assert coord.intervals_completed == 4
    assert coord.trace_time == 1000.0


def test_barrier_waits_for_slowest_participant():
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=100.0)
    starts = []

    def fast(start, end):
        starts.append(("fast", start, sim.now))
        return sim.timeout(1.0)

    def slow(start, end):
        starts.append(("slow", start, sim.now))
        return sim.timeout(10.0)

    coord.register(fast)
    coord.register(slow)
    sim.process(coord.run(200.0))
    sim.run()
    # Interval 2 starts only after slow finished interval 1 (wall 10.0).
    assert ("fast", 100.0, 10.0) in starts
    assert sim.now == 20.0  # two intervals, each paced by `slow`


def test_final_partial_interval_counts():
    """duration % interval != 0: the short tail interval still counts."""
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=300.0)
    windows = []

    def participant(start, end):
        windows.append((start, end))
        return sim.timeout(1.0)

    coord.register(participant)
    sim.process(coord.run(750.0))
    sim.run()
    assert windows == [(0.0, 300.0), (300.0, 600.0), (600.0, 750.0)]
    assert coord.intervals_completed == 3
    assert coord.trace_time == 750.0


def test_duration_shorter_than_interval():
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=300.0)
    windows = []

    def participant(start, end):
        windows.append((start, end))
        return sim.timeout(1.0)

    coord.register(participant)
    sim.process(coord.run(10.0))
    sim.run()
    assert windows == [(0.0, 10.0)]
    assert coord.intervals_completed == 1
    assert coord.trace_time == 10.0


def test_participant_failure_mid_interval():
    """A raising participant fails the run cleanly; the progress counters
    stay at the last *completed* interval."""
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=100.0)

    def healthy(start, end):
        return sim.timeout(1.0)

    def flaky_body(start):
        yield sim.timeout(0.5)
        if start >= 100.0:  # fails during the second interval
            raise RuntimeError("driver lost its trace shard")
        yield sim.timeout(0.5)

    def flaky(start, end):
        return sim.process(flaky_body(start))

    coord.register(healthy)
    coord.register(flaky)
    proc = sim.process(coord.run(300.0))
    with pytest.raises(CoordinatorError, match=r"\[100, 200\)"):
        sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, CoordinatorError)
    assert coord.intervals_completed == 1
    assert coord.trace_time == 100.0
    # The simulator stays usable: surviving participants drain quietly.
    sim.run()


def test_two_participants_failing_same_interval():
    """The second failure must not escape the simulator as a raw
    exception after the coordinator already aborted (regression: late
    failures were never defused)."""
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=100.0)

    def failing(delay, message):
        yield sim.timeout(delay)
        raise RuntimeError(message)

    coord.register(lambda start, end: sim.process(failing(0.5, "first")))
    coord.register(lambda start, end: sim.process(failing(1.0, "second")))
    sim.process(coord.run(300.0))
    with pytest.raises(CoordinatorError, match="first"):
        sim.run()
    assert coord.intervals_completed == 0
    assert coord.trace_time == 0.0
    # Draining the queue hits fail_slow's failure; it must be defused.
    sim.run()


def test_interval_too_small_to_advance():
    sim = Simulator(start_time=0.0)
    coord = TimeCoordinator(sim, interval=1e-13)
    coord.trace_time = 1e16  # resume far into a huge trace
    coord.register(lambda start, end: None)
    sim.process(coord.run(1e16 + 10.0))
    with pytest.raises(CoordinatorError, match="too small"):
        sim.run()


def test_wall_clock_decoupled_from_trace_time():
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=300.0)

    def quick(start, end):
        return sim.timeout(2.0)

    coord.register(quick)
    sim.process(coord.run(3000.0))
    sim.run()
    # 10 intervals x 2s wall each: trace time 3000, wall time 20.
    assert coord.trace_time == 3000.0
    assert sim.now == pytest.approx(20.0)


def test_idle_intervals_schedule_no_events():
    """Intervals in which every participant returns ``None`` cost no
    kernel event: 1,000 intervals with one busy one run a handful."""
    sim = Simulator()
    tracer = EventTracer(sim)
    coord = TimeCoordinator(sim, interval=100.0)
    calls = []

    def participant(start, end):
        calls.append(start)
        return sim.timeout(1.0) if start == 300.0 else None

    coord.register(participant)
    sim.process(coord.run(100_000.0))
    sim.run()
    assert len(calls) == 1000
    assert coord.intervals_completed == 1000
    assert coord.trace_time == 100_000.0
    assert sim.now == 1.0
    # Coordinator start, the busy interval's timeout, coordinator end.
    assert tracer.total == 3


def test_close_at_barrier_raises_nothing():
    """Closing a run suspended at its barrier (for instance when an
    aborted replay is garbage-collected) is not a participant failure."""
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=100.0)
    coord.register(lambda start, end: sim.timeout(1.0))
    run = coord.run(300.0)
    next(run)  # suspended at the first interval's barrier
    run.close()
    assert coord.intervals_completed == 0


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
    assert client.participant(0.0, 100.0) is None
    assert sim.queue_depth == 0  # nothing started
    done = client.participant(100.0, 200.0)
    sim.run()
    assert done.processed and counters.requests == 1
    assert client.participant(200.0, 300.0) is None


def test_modifier_has_nothing_due():
    sim = Simulator()
    touched = []
    modifier = Modifier(sim, [Modification(5.0, "/a")], touch=touched.append)
    assert modifier.participant(0.0, 5.0) is None
    assert sim.queue_depth == 0  # no process started
    done = modifier.participant(5.0, 10.0)
    sim.run()
    assert done.processed and touched == ["/a"]
    assert modifier.participant(10.0, 15.0) is None
