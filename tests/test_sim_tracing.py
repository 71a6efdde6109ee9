"""Tests for the optional event tracer."""

import pytest

from repro.sim import EventTracer, Simulator


def nothing():
    pass


def test_counts_processed_events():
    sim = Simulator()
    tracer = EventTracer(sim)

    def first():
        sim.call_later(2.0, nothing)

    sim.call_later(1.0, first)
    sim.call_later(3.0, nothing)
    sim.cancel(sim.call_later(4.0, nothing))
    sim.run()
    assert tracer.total == 3
    assert tracer.owners == {
        "test_counts_processed_events.<locals>.first": 1,
        "nothing": 2,
    }
    assert tracer.first_time == 1.0
    assert tracer.last_time == 3.0


def test_one_tracer_per_simulator():
    sim = Simulator()
    EventTracer(sim)
    with pytest.raises(ValueError):
        EventTracer(sim)


def test_detach_stops_observing():
    sim = Simulator()
    tracer = EventTracer(sim)
    sim.call_later(1.0, nothing)
    sim.run()
    seen = tracer.total
    tracer.detach()
    sim.call_later(1.0, nothing)
    sim.run()
    assert tracer.total == seen
    # A new tracer may now attach.
    EventTracer(sim)


def test_rate_and_summary():
    sim = Simulator()
    tracer = EventTracer(sim)
    for i in range(11):
        sim.call_later(float(i), nothing)
    sim.run()
    assert tracer.events_per_sim_second() == pytest.approx(1.1)
    assert "nothing" in tracer.summary()
    assert "11 events" in tracer.summary()


def test_rate_degenerate_cases():
    sim = Simulator()
    tracer = EventTracer(sim)
    assert tracer.events_per_sim_second() == 0.0
    sim.call_later(0.0, nothing)
    sim.run()
    assert tracer.events_per_sim_second() == 0.0  # zero span


class TestOwners:
    def test_counted_without_asking(self):
        sim = Simulator()
        tracer = EventTracer(sim)
        sim.call_later(1.0, nothing)
        sim.run()
        assert tracer.owners == {"nothing": 1}

    def test_callbacks_are_owned_by_their_code(self):
        sim = Simulator()
        tracer = EventTracer(sim)
        fired = []

        class Timer:
            def tick(self):
                fired.append(sim.now)
                if len(fired) < 3:
                    sim.call_later(1.0, self.tick)

        def once():
            pass

        sim.call_later(0.5, Timer().tick)
        sim.call_at(1.0, once)
        doomed = sim.call_later(2.0, once)
        sim.cancel(doomed)  # a cancelled entry is never counted
        sim.run()
        assert fired == [0.5, 1.5, 2.5]
        qual = "TestOwners.test_callbacks_are_owned_by_their_code"
        assert tracer.owners == {
            f"{qual}.<locals>.Timer.tick": 3,  # a bound method: its function
            f"{qual}.<locals>.once": 1,
        }
        assert sum(tracer.owners.values()) == tracer.total
