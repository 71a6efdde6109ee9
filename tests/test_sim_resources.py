"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Resource, Simulator, Store


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def hold_for(res, hold, log=None, name=None):
    """Claim ``res``; on the grant log ``name``, then release ``hold`` later."""
    sim = res.sim

    def granted(claim):
        if log is not None:
            log.append((name, "start", sim.now))
        sim.call_later(hold, release, claim)

    def release(claim):
        if log is not None:
            log.append((name, "end", sim.now))
        res.release(claim)

    return res.acquire(granted)


def test_resource_serialises_users():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []
    hold_for(res, 2.0, log, "a")
    hold_for(res, 3.0, log, "b")
    sim.run()
    assert log == [
        ("a", "start", 0.0),
        ("a", "end", 2.0),
        ("b", "start", 2.0),
        ("b", "end", 5.0),
    ]


def test_resource_parallel_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    log = []
    for _ in range(4):
        hold_for(res, 1.0, log)
    sim.run()
    ends = [at for _name, what, at in log if what == "end"]
    assert ends == [1.0, 1.0, 2.0, 2.0]


def test_resource_busy_time_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    hold_for(res, 3.0)
    sim.run(until=10.0)
    assert res.busy_time() == pytest.approx(3.0)


def test_resource_busy_time_counts_in_flight_use():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    hold_for(res, 8.0)
    sim.run(until=4.0)
    assert res.busy_time() == pytest.approx(4.0)


def test_resource_queue_length_and_count():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    hold_for(res, 5.0)
    res.acquire(lambda claim: None)
    sim.run(until=1.0)
    assert res.count == 1
    assert res.queue_length == 1


def test_resource_release_unknown_request_is_noop():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    claim = res.acquire(lambda claim: None)
    sim.run()
    res.release(claim)
    res.release(claim)  # double release tolerated
    assert res.count == 0


class TestAcquire:
    """Claims on a :class:`Resource`, made with :meth:`Resource.acquire`."""

    def test_free_grant_runs_inline_and_queues_nothing(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        calls = []
        claim = res.acquire(lambda granted, tag: calls.append((granted, tag)), 7)
        assert calls == [(claim, 7)]
        assert res.count == 1
        assert res.queue_length == 0
        assert sim.queue_depth == 0

    def test_busy_claims_are_granted_fifo(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def hold(claim, name):
            log.append((name, sim.now))
            sim.call_later(1.0, res.release, claim)

        res.acquire(hold, "claim-0")
        res.acquire(hold, "claim-1")
        sim.run(until=0.5)
        res.acquire(hold, "claim-2")
        res.acquire(hold, "claim-3")
        assert log == [("claim-0", 0.0)]
        assert res.queue_length == 3
        sim.run(until=1.0)
        # The release at 1.0 granted claim-1 at once, but its callback
        # runs from the queue, not inside the release.
        assert res.count == 1 and res.queue_length == 2
        sim.run()
        assert log == [
            ("claim-0", 0.0),
            ("claim-1", 1.0),
            ("claim-2", 2.0),
            ("claim-3", 3.0),
        ]

    def test_busy_time_matches_the_request_form(self):
        # Recorded while a process could still claim a unit by waiting on
        # a request event; both forms gave these values at each instant.
        arrivals = [(0.0, 1.0), (0.3, 0.25), (0.35, 0.7), (2.0, 0.1), (2.1, 3.3)]
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def granted(claim, hold):
            sim.call_later(hold, res.release, claim)

        for at, hold in arrivals:
            sim.call_later(at, res.acquire, granted, hold)
        expected = [
            (0.2, 0.2),
            (0.4, 0.4),
            (1.3, 1.3),
            (2.05, 1.9999999999999998),
            (2.6, 2.55),
            (9.0, 5.35),
        ]
        for until, busy in expected:
            sim.run(until=until)
            assert res.busy_time() == busy

    def test_releasing_an_ungranted_claim_withdraws_it(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        calls = []
        holder = res.acquire(lambda claim: None)
        waiting = res.acquire(lambda claim: calls.append(claim))
        assert res.queue_length == 1
        res.release(waiting)
        assert res.queue_length == 0
        res.release(holder)
        sim.run()
        assert calls == []
        assert res.count == 0


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    got = []

    def getter(sim):
        item = yield store.get()
        got.append(item)

    sim.process(getter(sim))
    sim.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim):
        item = yield store.get()
        got.append((sim.now, item))

    def putter(sim):
        yield sim.timeout(4.0)
        store.put("late")

    sim.process(getter(sim))
    sim.process(putter(sim))
    sim.run()
    assert got == [(4.0, "late")]


def test_store_fifo_ordering():
    sim = Simulator()
    store = Store(sim)
    for item in ("a", "b", "c"):
        store.put(item)
    got = []

    def getter(sim):
        for _ in range(3):
            got.append((yield store.get()))

    sim.process(getter(sim))
    sim.run()
    assert got == ["a", "b", "c"]


def test_store_multiple_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim, name):
        item = yield store.get()
        got.append((name, item))

    sim.process(getter(sim, "first"))
    sim.process(getter(sim, "second"))

    def putter(sim):
        yield sim.timeout(1.0)
        store.put(1)
        store.put(2)

    sim.process(putter(sim))
    sim.run()
    assert got == [("first", 1), ("second", 2)]


def test_store_try_get_and_len():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put("only")
    assert len(store) == 1
    assert store.try_get() == "only"
    assert len(store) == 0


def test_store_clear():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert store.clear() == 2
    assert len(store) == 0
    assert store.items == ()
