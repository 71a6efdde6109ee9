"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Resource, Simulator, Store


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_serialises_users():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def user(sim, name, hold):
        with res.request() as req:
            yield req
            log.append((name, "start", sim.now))
            yield sim.timeout(hold)
            log.append((name, "end", sim.now))

    sim.process(user(sim, "a", 2.0))
    sim.process(user(sim, "b", 3.0))
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
    ends = []

    def user(sim):
        with res.request() as req:
            yield req
            yield sim.timeout(1.0)
            ends.append(sim.now)

    for _ in range(4):
        sim.process(user(sim))
    sim.run()
    assert ends == [1.0, 1.0, 2.0, 2.0]


def test_resource_busy_time_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim):
        with res.request() as req:
            yield req
            yield sim.timeout(3.0)

    sim.process(user(sim))
    sim.run(until=10.0)
    assert res.busy_time() == pytest.approx(3.0)


def test_resource_busy_time_counts_in_flight_use():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim):
        with res.request() as req:
            yield req
            yield sim.timeout(8.0)

    sim.process(user(sim))
    sim.run(until=4.0)
    assert res.busy_time() == pytest.approx(4.0)


def test_resource_queue_length_and_count():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder(sim):
        with res.request() as req:
            yield req
            yield sim.timeout(5.0)

    def waiter(sim):
        with res.request() as req:
            yield req

    sim.process(holder(sim))
    sim.process(waiter(sim))
    sim.run(until=1.0)
    assert res.count == 1
    assert res.queue_length == 1


def test_resource_release_unknown_request_is_noop():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    req = res.request()
    sim.run()
    res.release(req)
    res.release(req)  # double release tolerated
    assert res.count == 0


class TestAcquire:
    """The callback form of a claim, :meth:`Resource.acquire`."""

    def test_free_grant_runs_inline_and_queues_nothing(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        calls = []
        claim = res.acquire(lambda granted, tag: calls.append((granted, tag)), 7)
        assert calls == [(claim, 7)]
        assert res.count == 1
        assert res.queue_length == 0
        assert sim.queue_depth == 0

    def test_claims_and_requests_share_one_fifo_queue(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def hold(claim, name):
            log.append((name, sim.now))
            sim.call_later(1.0, res.release, claim)

        def waiter(name):
            with res.request() as req:
                yield req
                log.append((name, sim.now))
                yield sim.sleep(1.0)

        res.acquire(hold, "claim-0")
        sim.process(waiter("request-1"))
        sim.run(until=0.5)
        res.acquire(hold, "claim-2")
        sim.process(waiter("request-3"))
        sim.run(until=0.6)
        res.acquire(hold, "claim-4")
        sim.run()
        assert log == [
            ("claim-0", 0.0),
            ("request-1", 1.0),
            ("claim-2", 2.0),
            ("request-3", 3.0),
            ("claim-4", 4.0),
        ]

    def test_busy_time_matches_the_request_form(self):
        arrivals = [(0.0, 1.0), (0.3, 0.25), (0.35, 0.7), (2.0, 0.1), (2.1, 3.3)]

        def with_requests():
            sim = Simulator()
            res = Resource(sim, capacity=1)

            def user(hold):
                with res.request() as req:
                    yield req
                    yield sim.sleep(hold)

            for at, hold in arrivals:
                sim.call_later(at, lambda hold=hold: sim.process(user(hold)))
            return sim, res

        def with_claims():
            sim = Simulator()
            res = Resource(sim, capacity=1)

            def granted(claim, hold):
                sim.call_later(hold, res.release, claim)

            for at, hold in arrivals:
                sim.call_later(at, res.acquire, granted, hold)
            return sim, res

        runs = [with_requests(), with_claims()]
        for until in (0.2, 0.4, 1.3, 2.05, 2.6, 9.0):
            busy = []
            for sim, res in runs:
                sim.run(until=until)
                busy.append(res.busy_time())
            assert busy[0] == busy[1]
        assert busy[1] == pytest.approx(5.35)

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
