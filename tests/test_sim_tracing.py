"""Tests for the optional event tracer."""

import pytest

from repro.sim import EventTracer, Simulator


def test_counts_processed_events():
    sim = Simulator()
    tracer = EventTracer(sim)

    def proc(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)

    sim.process(proc(sim))
    sim.run()
    assert tracer.total > 0
    assert tracer.counts["Timeout"] == 2
    assert tracer.counts["Process"] == 1
    assert tracer.first_time == 0.0
    assert tracer.last_time == 3.0


def test_ring_buffer_bounded():
    sim = Simulator()
    tracer = EventTracer(sim, keep_last=3)
    for i in range(10):
        sim.timeout(float(i))
    sim.run()
    assert len(tracer.recent) == 3
    assert tracer.recent[-1][0] == 9.0


def test_recording_disabled_by_default():
    sim = Simulator()
    tracer = EventTracer(sim)
    sim.timeout(1.0)
    sim.run()
    assert tracer.recent == []


def test_one_tracer_per_simulator():
    sim = Simulator()
    EventTracer(sim)
    with pytest.raises(ValueError):
        EventTracer(sim)


def test_detach_stops_observing():
    sim = Simulator()
    tracer = EventTracer(sim)
    sim.timeout(1.0)
    sim.run()
    seen = tracer.total
    tracer.detach()
    sim.timeout(1.0)
    sim.run()
    assert tracer.total == seen
    # A new tracer may now attach.
    EventTracer(sim)


def test_rate_and_summary():
    sim = Simulator()
    tracer = EventTracer(sim)
    for i in range(11):
        sim.timeout(float(i))
    sim.run()
    assert tracer.events_per_sim_second() == pytest.approx(1.1)
    assert "Timeout" in tracer.summary()
    assert "11 events" in tracer.summary()


def test_rate_degenerate_cases():
    sim = Simulator()
    tracer = EventTracer(sim)
    assert tracer.events_per_sim_second() == 0.0
    sim.timeout(0.0)
    sim.run()
    assert tracer.events_per_sim_second() == 0.0  # zero span


def test_pooled_entries_are_traced_as_themselves():
    # Tracing must not change scheduling: pooled timers stay pooled and
    # are counted under their own kinds.
    sim = Simulator()
    tracer = EventTracer(sim)
    fired = []
    sim.call_later(1.0, fired.append, "cb")

    def proc(sim):
        yield sim.sleep(2.0)

    sim.process(proc(sim))
    sim.run()
    assert fired == ["cb"]
    assert tracer.counts["Callback"] == 1
    assert tracer.counts["_Sleep"] == 1
    assert tracer.counts["Timeout"] == 0
    assert tracer.last_time == 2.0


class TestOwners:
    def test_off_by_default(self):
        sim = Simulator()
        tracer = EventTracer(sim)
        sim.timeout(1.0)
        sim.run()
        assert tracer.owners is None

    def test_callbacks_and_processes_are_owned_by_their_code(self):
        sim = Simulator()
        tracer = EventTracer(sim, owners=True)
        fired = []

        def tick():
            fired.append(sim.now)

        def child():
            yield sim.sleep(1.0)

        def parent():
            yield sim.process(child())
            yield sim.timeout(1.0)

        sim.call_later(0.5, tick)
        sim.process(parent())
        sim.timeout(3.0)
        sim.run()
        qual = "TestOwners.test_callbacks_and_processes_are_owned_by_their_code"
        assert tracer.owners == {
            f"{qual}.<locals>.tick": 1,
            # parent: its start, child's end (a join), its timeout, its end
            f"{qual}.<locals>.parent": 4,
            # child: its start and its sleep
            f"{qual}.<locals>.child": 2,
            "Timeout": 1,  # nobody waits on it
        }
        assert sum(tracer.owners.values()) == tracer.total
