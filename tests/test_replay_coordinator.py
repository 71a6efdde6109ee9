"""Unit tests for the lock-step time coordinator."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import invalidation
from repro.metrics import ReplayCounters
from repro.net import FixedLatency, Network
from repro.proxy import ProxyCache
from repro.replay import CoordinatorError, PseudoClient, TimeCoordinator
from repro.server import FileStore, ServerSite
from repro.sim import EventTracer, Simulator
from repro.traces import TraceRecord
from repro.workload import Modification, Modifier


class EveryInterval:
    """A participant with work due in every interval.

    ``work(start, end, at, arrive)`` runs the work of the interval
    ``[start, end)`` of trace time from wall time ``at``.
    """

    def __init__(self, coord, work):
        self.coord = coord
        self.work = work
        self.next_due = 0.0

    def run_interval(self, trace_end, at, arrive):
        start = self.coord.trace_time
        self.next_due = trace_end  # due again in the next interval
        self.work(start, trace_end, at, arrive)


def busy_for(coord, seconds, log=None, name=None):
    """A participant whose work in every interval takes ``seconds``."""

    def work(start, end, at, arrive):
        if log is not None:
            log.append((name, start, at) if name else (start, end))
        arrive(at + seconds)

    return EveryInterval(coord, work)


class DueAt:
    """A participant due at the given trace times; each interval's work
    ends ``seconds`` after it starts, arriving inline."""

    def __init__(self, coord, times, name, calls, seconds=0.0):
        self.coord = coord
        self.times = sorted(times)
        self.name = name
        self.calls = calls
        self.seconds = seconds
        self.next_due = self.times[0] if self.times else math.inf

    def run_interval(self, trace_end, at, arrive):
        self.calls.append((self.name, self.coord.trace_time, trace_end))
        while self.times and self.times[0] < trace_end:
            self.times.pop(0)
        self.next_due = self.times[0] if self.times else math.inf
        arrive(at + self.seconds)


def proxy_for(sim):
    """A proxy in front of an origin serving ``/a``."""
    net = Network(sim, latency=FixedLatency(0.001))
    protocol = invalidation()
    ServerSite(sim, net, "server", FileStore.from_catalog({"/a": 1000}),
               accel=protocol.accelerator)
    return ProxyCache(sim, net, "proxy-0", "server",
                      policy=protocol.client_policy)


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
    coord.register(busy_for(coord, 1.0, windows))
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
    coord.register(busy_for(coord, 1.0, starts, "fast"))
    coord.register(busy_for(coord, 10.0, starts, "slow"))
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

    def late(start, end, at, arrive):
        # Reports 3 s into its work that the work ended 4 s in.
        sim.call_at(at + 3.0, arrive, at + 4.0)

    coord.register(EveryInterval(coord, late))
    coord.register(busy_for(coord, 6.0, starts, "early"))
    coord.start(200.0)
    sim.run()
    assert starts == [("early", 0.0, 0.0), ("early", 100.0, 6.0)]
    assert sim.now == 12.0


def test_final_partial_interval_counts():
    """duration % interval != 0: the short tail interval still counts."""
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=300.0)
    windows = []
    coord.register(busy_for(coord, 1.0, windows))
    coord.start(750.0)
    sim.run()
    assert windows == [(0.0, 300.0), (300.0, 600.0), (600.0, 750.0)]
    assert coord.intervals_completed == 3
    assert coord.trace_time == 750.0


def test_duration_shorter_than_interval():
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=300.0)
    windows = []
    coord.register(busy_for(coord, 1.0, windows))
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

    def flaky(start, end, at, arrive):
        sim.call_at(at + 0.5, flaky_step, start, arrive)

    coord.register(busy_for(coord, 1.0))
    coord.register(EveryInterval(coord, flaky))
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
        def work(start, end, at, arrive):
            sim.call_at(at + delay, fail, message)

        return EveryInterval(coord, work)

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
    coord.register(DueAt(coord, [], "idle", []))
    with pytest.raises(CoordinatorError, match="too small"):
        coord.start(1e16 + 10.0)
    assert coord.trace_time == 1e16 and coord.intervals_completed == 0


def test_interval_too_small_after_a_jump():
    """The guard also fires in an interval that is jumped over, with the
    trace time and count that stepping would have reached."""
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=1.0)
    coord.trace_time = 2.0**53 - 10  # above 2**53, adding 1.0 is a no-op
    coord.register(DueAt(coord, [2.0**53 - 10], "once", []))
    with pytest.raises(CoordinatorError, match="too small"):
        coord.start(2.0**53 + 100)
    assert coord.trace_time == 2.0**53
    assert coord.intervals_completed == 10


def test_wall_clock_decoupled_from_trace_time():
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=300.0)
    coord.register(busy_for(coord, 2.0))
    coord.start(3000.0)
    sim.run()
    # 10 intervals x 2s wall each: trace time 3000, wall time 20.
    assert coord.trace_time == 3000.0
    assert sim.now == pytest.approx(20.0)


def test_idle_intervals_schedule_no_events():
    """Intervals in which no participant is busy cost no call and no
    kernel event: of 1,000 intervals, the one busy one calls its
    participant once, and the replay runs one event, its end."""
    sim = Simulator()
    tracer = EventTracer(sim)
    coord = TimeCoordinator(sim, interval=100.0)
    calls = []
    coord.register(DueAt(coord, [350.0], "once", calls, seconds=1.0))
    coord.start(100_000.0)
    sim.run()
    assert calls == [("once", 300.0, 400.0)]
    assert coord.intervals_completed == 1000
    assert coord.trace_time == 100_000.0
    assert sim.now == 1.0
    assert tracer.owners == {"TimeCoordinator._finish": 1}


def test_close_at_barrier_raises_nothing():
    """A run stopped while it waits at its barrier raises nothing, counts
    no interval, and finishes when the simulator is run on."""
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=100.0)

    def work(start, end, at, arrive):
        sim.call_at(at + 1.0, arrive, at + 1.0)

    coord.register(EveryInterval(coord, work))
    coord.start(300.0)
    sim.run(until=0.5)  # suspended at the first interval's barrier
    assert coord.intervals_completed == 0
    sim.run()
    assert coord.intervals_completed == 3 and sim.now == 3.0


def test_inline_arrivals_still_end_at_the_deadline():
    """Only the modifier is busy: the next interval starts at the end of
    its per-touch overhead, and the modifier-only interval costs one
    event, its first touch."""
    sim = Simulator()
    tracer = EventTracer(sim)
    coord = TimeCoordinator(sim, interval=10.0)
    starts = []

    def observe(start, end, at, arrive):
        starts.append((start, at))
        arrive(at)

    observer = EveryInterval(coord, observe)
    observer.next_due = 10.0  # first due in the second interval
    modifier = Modifier(
        sim, [Modification(5.0, "/a")], touch=lambda url: None, overhead=0.5
    )
    coord.register(observer)
    coord.register(modifier)
    coord.start(20.0)
    assert modifier.modifications_applied == 0  # the touch is at ``at``
    sim.run()
    assert modifier.modifications_applied == 1
    assert starts == [(10.0, 0.5)]
    assert tracer.owners == {"Modifier._apply": 1, "TimeCoordinator._finish": 1}


def test_inline_arrivals_at_now_take_one_event():
    """Busy intervals whose work takes no wall time start each other in a
    loop: the whole replay takes one event, its end, and no recursion."""
    sim = Simulator()
    tracer = EventTracer(sim)
    coord = TimeCoordinator(sim, interval=10.0)
    coord.register(busy_for(coord, 0.0))
    coord.start(30.0)
    assert coord.intervals_completed == 3 and not coord.finished
    sim.run()
    assert coord.finished and sim.now == 0.0
    assert tracer.total == 1

    sim = Simulator()
    coord = TimeCoordinator(sim, interval=1.0)
    coord.register(busy_for(coord, 0.0))
    coord.start(20_000.0)  # far deeper than the recursion limit
    assert coord.intervals_completed == 20_000


def test_pseudo_client_has_nothing_due():
    sim = Simulator()
    proxy = proxy_for(sim)
    counters = ReplayCounters()
    client = PseudoClient(proxy, [TraceRecord(150.0, "c1", "/a")], counters)
    # Not due in [0, 100): the coordinator never calls it there.
    assert client.next_due == 150.0
    assert sim.queue_depth == 0  # nothing started
    arrivals = []
    client.run_interval(200.0, 2.0, arrivals.append)
    assert client.next_due == math.inf  # its last record is issued
    # The request is issued at ``at``: its lookup follows the lookup delay.
    assert sim.peek() == 2.0 + proxy.costs.cpu_lookup
    sim.run()
    assert counters.requests == 1
    (arrival,) = arrivals
    # The request's end (the last event) plus think time, drawn as
    # 0.5-1.5 x think_time.
    assert 0.5 <= arrival - sim.now <= 1.5
    assert PseudoClient(proxy, [], counters).next_due == math.inf


def test_pseudo_client_think_times_match_uniform_draws():
    """Think times are ``rng.uniform(0.5, 1.5) * think_time``, bit for bit."""
    sim = Simulator()
    proxy = proxy_for(sim)
    issued, finished, arrivals = [], [], []
    submit = proxy.submit

    def recording_submit(client, url, on_done, start):
        issued.append(start)

        def done(outcome):
            finished.append(outcome.finished)
            on_done(outcome)

        submit(client, url, done, start)

    proxy.submit = recording_submit
    client = PseudoClient(
        proxy, [TraceRecord(float(t), "c1", "/a") for t in range(6)],
        ReplayCounters(), think_time=2.5, rng=random.Random(31),
    )
    client.run_interval(100.0, 0.0, arrivals.append)
    sim.run()
    reference = random.Random(31)
    expected = [end + reference.uniform(0.5, 1.5) * 2.5 for end in finished]
    assert len(finished) == 6
    assert issued[1:] + arrivals == expected


def test_modifier_has_nothing_due():
    sim = Simulator()
    touched = []
    arrivals = []
    modifier = Modifier(sim, [Modification(5.0, "/a")], touch=touched.append)
    # Not due in [0, 5): the coordinator never calls it there.
    assert modifier.next_due == 5.0
    modifier.run_interval(10.0, 1.0, arrivals.append)
    assert touched == [] and sim.peek() == 1.0  # the first touch is at ``at``
    sim.run()
    assert touched == ["/a"] and arrivals == [1.0]
    assert modifier.next_due == math.inf
    assert Modifier(sim, [], touch=touched.append).next_due == math.inf


def test_idle_participants_are_never_called():
    """Each participant is called once per interval holding its next
    record or modification, and never otherwise."""
    sim = Simulator()
    proxy = proxy_for(sim)
    counters = ReplayCounters()
    coord = TimeCoordinator(sim, interval=100.0)
    calls = []

    def counted(name, participant):
        run_interval = participant.run_interval

        def wrapper(trace_end, at, arrive):
            calls.append((name, coord.trace_time))
            run_interval(trace_end, at, arrive)

        participant.run_interval = wrapper
        return participant

    a = PseudoClient(proxy, [TraceRecord(t, "c1", "/a") for t in (150.0, 160.0, 5_000.0)],
                     counters, think_time=0.5)
    b = PseudoClient(proxy, [TraceRecord(t, "c2", "/a") for t in (150.0, 9_999.0)],
                     counters, think_time=0.5)
    modifier = Modifier(
        sim, [Modification(t, "/a") for t in (420.0, 430.0, 5_050.0)],
        touch=lambda url: None, overhead=0.25,
    )
    coord.register(counted("a", a))
    coord.register(counted("b", b))
    coord.register(counted("modifier", modifier))
    coord.start(10_000.0)
    sim.run()
    assert calls == [
        ("a", 100.0), ("b", 100.0),
        ("modifier", 400.0),
        ("a", 5_000.0), ("modifier", 5_000.0),
        ("b", 9_900.0),
    ]
    assert counters.requests == 5 and modifier.modifications_applied == 3
    assert coord.intervals_completed == 100 and coord.finished


def test_busy_pseudo_clients_schedule_no_coordinator_event():
    """An interval in which only pseudo-clients are busy ends at their
    last arrival, with no event of the coordinator's own."""
    sim = Simulator()
    tracer = EventTracer(sim)
    proxy = proxy_for(sim)
    counters = ReplayCounters()
    coord = TimeCoordinator(sim, interval=100.0)
    client = PseudoClient(
        proxy, [TraceRecord(t, "c1", "/a") for t in (0.0, 50.0, 150.0, 250.0)],
        counters,
    )
    coord.register(client)
    coord.start(300.0)
    sim.run()
    assert counters.requests == 4 and coord.intervals_completed == 3
    coordinator_events = {
        owner: n for owner, n in tracer.owners.items()
        if owner.startswith("TimeCoordinator.")
    }
    assert coordinator_events == {"TimeCoordinator._finish": 1}


def reference_steps(dues, interval, duration):
    """The calls, trace time and interval count of a coordinator that
    steps one interval at a time and asks everyone in every interval."""
    pending = {name: sorted(times) for name, times in dues.items()}
    calls = []
    start, completed = 0.0, 0
    while start < duration:
        end = min(start + interval, duration)
        for name, times in pending.items():
            if times and times[0] < end:
                calls.append((name, start, end))
                while times and times[0] < end:
                    times.pop(0)
        start = end
        completed += 1
    return calls, start, completed


@settings(max_examples=60, deadline=None)
@given(
    interval=st.sampled_from([0.1, 0.3, 1.0, 7.0, 300.0]),
    steps=st.floats(min_value=0.5, max_value=300.0),
    fractions=st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                 max_size=6),
        min_size=1, max_size=4,
    ),
)
def test_jumping_matches_one_interval_at_a_time(interval, steps, fractions):
    """Jumping over idle intervals leaves the same trace times, the same
    calls and the same interval count as stepping through every one,
    including a partial last interval."""
    duration = interval * steps
    dues = {f"p{i}": [f * duration for f in fs] for i, fs in enumerate(fractions)}
    sim = Simulator()
    coord = TimeCoordinator(sim, interval=interval)
    calls = []
    for name, times in dues.items():
        coord.register(DueAt(coord, times, name, calls))
    coord.start(duration)
    sim.run()
    expected_calls, trace_time, completed = reference_steps(
        dues, interval, duration
    )
    assert calls == expected_calls
    assert coord.trace_time == trace_time
    assert coord.intervals_completed == completed
    assert coord.finished
