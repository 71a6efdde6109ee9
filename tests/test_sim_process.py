"""Unit tests for generator processes, joins and conditions."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    SimulationError,
    Simulator,
)


def test_process_runs_and_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.0)
        return "finished"

    p = sim.process(proc(sim))
    sim.run()
    assert p.processed
    assert p.value == "finished"
    assert not p.is_alive


def test_process_sees_timeout_values():
    sim = Simulator()
    got = []

    def proc(sim):
        value = yield sim.timeout(1.0, value="tick")
        got.append(value)

    sim.process(proc(sim))
    sim.run()
    assert got == ["tick"]


def test_join_waits_for_child():
    sim = Simulator()
    log = []

    def child(sim):
        yield sim.timeout(3.0)
        return 99

    def parent(sim):
        result = yield sim.process(child(sim))
        log.append((sim.now, result))

    sim.process(parent(sim))
    sim.run()
    assert log == [(3.0, 99)]


def test_exception_in_process_propagates_to_joiner():
    sim = Simulator()
    caught = []

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent(sim))
    sim.run()
    assert caught == ["child died"]


def test_unjoined_process_exception_escapes_run():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        raise KeyError("oops")

    sim.process(proc(sim))
    with pytest.raises(KeyError):
        sim.run()


def test_yield_non_event_is_error():
    sim = Simulator()

    def proc(sim):
        yield 42

    sim.process(proc(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_process_of_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_waiting_on_already_processed_event():
    sim = Simulator()
    log = []
    evt = sim.event()
    evt.succeed("early")

    def late(sim):
        yield sim.timeout(5.0)
        value = yield evt  # already processed by now
        log.append((sim.now, value))

    sim.process(late(sim))
    sim.run()
    assert log == [(5.0, "early")]


def test_all_of_waits_for_all():
    sim = Simulator()
    log = []

    def proc(sim):
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(4.0, value="b")
        results = yield AllOf(sim, [t1, t2])
        log.append((sim.now, results[t1], results[t2]))

    sim.process(proc(sim))
    sim.run()
    assert log == [(4.0, "a", "b")]


def test_any_of_fires_on_first():
    sim = Simulator()
    log = []

    def proc(sim):
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(9.0, value="slow")
        results = yield AnyOf(sim, [fast, slow])
        log.append((sim.now, fast in results, slow in results))

    sim.process(proc(sim))
    sim.run()
    assert log == [(1.0, True, False)]


def test_condition_operators():
    sim = Simulator()
    log = []

    def proc(sim):
        t1 = sim.timeout(1.0)
        t2 = sim.timeout(2.0)
        yield t1 & t2
        log.append(sim.now)
        t3 = sim.timeout(1.0)
        t4 = sim.timeout(5.0)
        yield t3 | t4
        log.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert log == [2.0, 3.0]


def test_empty_all_of_triggers_immediately():
    sim = Simulator()
    log = []

    def proc(sim):
        result = yield AllOf(sim, [])
        log.append(len(result))

    sim.process(proc(sim))
    sim.run()
    assert log == [0]


def test_condition_value_mapping_api():
    sim = Simulator()
    holder = {}

    def proc(sim):
        t = sim.timeout(1.0, value="x")
        holder["cv"] = yield AllOf(sim, [t])
        holder["t"] = t

    sim.process(proc(sim))
    sim.run()
    cv, t = holder["cv"], holder["t"]
    assert cv[t] == "x"
    assert list(cv) == [t]
    assert cv.todict() == {t: "x"}
    with pytest.raises(KeyError):
        _ = cv[sim.event()]


def test_condition_failure_propagates():
    sim = Simulator()
    caught = []

    def failing(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("inner")

    def proc(sim):
        try:
            yield AllOf(sim, [sim.process(failing(sim)), sim.timeout(10.0)])
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(proc(sim))
    sim.run()
    assert caught == ["inner"]


def test_nested_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def worker(sim, name, delay):
        yield sim.timeout(delay)
        order.append(name)

    sim.process(worker(sim, "a", 1.0))
    sim.process(worker(sim, "b", 1.0))
    sim.process(worker(sim, "c", 0.5))
    sim.run()
    assert order == ["c", "a", "b"]


def test_active_process_visible_during_resume():
    sim = Simulator()
    seen = []

    def proc(sim):
        seen.append(sim.active_process)
        yield sim.timeout(1.0)

    p = sim.process(proc(sim))
    sim.run()
    assert seen == [p]
    assert sim.active_process is None
