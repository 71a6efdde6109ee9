"""Unit tests for Resource."""

import pytest

from repro.sim import Resource, Simulator


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
    res = Resource(sim)
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


def test_resource_busy_time_accounting():
    sim = Simulator()
    res = Resource(sim)
    hold_for(res, 3.0)
    sim.run(until=10.0)
    assert res.busy_time() == pytest.approx(3.0)


def test_resource_busy_time_counts_in_flight_use():
    sim = Simulator()
    res = Resource(sim)
    hold_for(res, 8.0)
    sim.run(until=4.0)
    assert res.busy_time() == pytest.approx(4.0)


def test_resource_queue_length_and_count():
    sim = Simulator()
    res = Resource(sim)
    hold_for(res, 5.0)
    res.acquire(lambda claim: None)
    sim.run(until=1.0)
    assert res.count == 1
    assert res.queue_length == 1


def test_resource_release_unknown_request_is_noop():
    sim = Simulator()
    res = Resource(sim)
    claim = res.acquire(lambda claim: None)
    sim.run()
    res.release(claim)
    res.release(claim)  # double release tolerated
    assert res.count == 0


class TestAcquire:
    """Claims on a :class:`Resource`, made with :meth:`Resource.acquire`."""

    def test_free_grant_runs_inline_and_queues_nothing(self):
        sim = Simulator()
        res = Resource(sim)
        calls = []
        claim = res.acquire(lambda granted, tag: calls.append((granted, tag)), 7)
        assert calls == [(claim, 7)]
        assert res.count == 1
        assert res.queue_length == 0
        assert sim.queue_depth == 0

    def test_busy_claims_are_granted_fifo(self):
        sim = Simulator()
        res = Resource(sim)
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
        res = Resource(sim)

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
        res = Resource(sim)
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


class TestUse:
    """Timed holds of a :class:`Resource`, made with :meth:`Resource.use`."""

    ARRIVALS = [(0.0, 1.0), (0.3, 0.25), (0.35, 0.7), (2.0, 0.1), (2.1, 3.3)]
    CHECKPOINTS = [0.2, 0.4, 1.3, 1.95, 2.05, 2.6, 9.0]

    def run_arrivals(self, hold):
        """Busy time at each checkpoint and each hold's end, in order."""
        sim = Simulator()
        res = Resource(sim)
        ends = []
        for at, seconds in self.ARRIVALS:
            sim.call_later(at, hold, sim, res, seconds, ends)
        busy = []
        for until in self.CHECKPOINTS:
            sim.run(until=until)
            busy.append(res.busy_time())
        return busy, ends

    def test_matches_acquire_timer_release(self):
        def with_use(sim, res, seconds, ends):
            res.use(seconds, lambda: ends.append(sim.now))

        def with_acquire(sim, res, seconds, ends):
            def granted(claim):
                sim.call_later(seconds, finish, claim)

            def finish(claim):
                res.release(claim)
                ends.append(sim.now)

            res.acquire(granted)

        used = self.run_arrivals(with_use)
        acquired = self.run_arrivals(with_acquire)
        assert used == acquired
        busy, ends = used
        assert busy[-1] == 5.35
        assert ends == [1.0, 1.25, 1.95, 2.1, 5.4]

    def test_free_unit_is_taken_at_once(self):
        sim = Simulator()
        res = Resource(sim)
        res.use(2.0, lambda: None)
        assert res.count == 1
        assert res.queue_length == 0
        assert sim.queue_depth == 1  # the end of the hold, nothing else
        sim.run()
        assert res.count == 0
        assert res.busy_time() == 2.0

    def test_queued_claim_is_granted_after_the_releasing_then(self):
        sim = Simulator()
        res = Resource(sim)
        log = []

        def then():
            log.append(("then", sim.now))
            # The grant is already queued: a zero-delay entry pushed now
            # runs after it.
            assert res.count == 1 and res.queue_length == 0
            sim.call_later(0.0, log.append, ("after-then", sim.now))

        res.use(1.0, then)
        res.acquire(lambda claim: log.append(("granted", sim.now)))
        sim.run()
        assert log == [("then", 1.0), ("granted", 1.0), ("after-then", 1.0)]
        assert res.count == 1  # the acquired claim is never released

    def test_use_and_acquire_claims_interleave_fifo(self):
        sim = Simulator()
        res = Resource(sim)
        log = []

        def hold(claim, name):
            log.append((name, "start", sim.now))
            sim.call_later(1.0, release, claim, name)

        def release(claim, name):
            log.append((name, "end", sim.now))
            res.release(claim)

        def used(name):
            log.append((name, "end", sim.now))

        res.acquire(hold, "a0")
        res.use(2.0, used, "u1")
        res.acquire(hold, "a2")
        res.use(0.5, used, "u3")
        res.acquire(hold, "a4")
        assert res.queue_length == 4
        sim.run()
        assert log == [
            ("a0", "start", 0.0),
            ("a0", "end", 1.0),
            ("u1", "end", 3.0),
            ("a2", "start", 3.0),
            ("a2", "end", 4.0),
            ("u3", "end", 4.5),
            ("a4", "start", 4.5),
            ("a4", "end", 5.5),
        ]
        assert res.busy_time() == 5.5
        assert res.count == 0

