"""Tests for lifetimes, the modifier process, and r/m stream counting."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.replay import TimeCoordinator
from repro.sim import Simulator
from repro.workload import (
    DAYS,
    Modifier,
    count_r_ri,
    expected_modifications,
    generate_schedule,
    mean_lifetime,
    merge_events,
    modification_interval,
    parse_stream,
)


class TestLifetime:
    def test_paper_epa_numbers(self):
        # EPA: 3600 files, 50-day lifetime, 1-day trace -> 72 modifications.
        interval = modification_interval(3600, 50 * DAYS)
        assert interval == pytest.approx(1200.0)
        assert expected_modifications(3600, 50 * DAYS, 1 * DAYS) == 72

    def test_paper_sask_numbers(self):
        # SASK: 2009 files, 14-day lifetime, 8-day trace -> 1148 mods.
        assert expected_modifications(2009, 14 * DAYS, 8 * DAYS) == 1148

    def test_paper_sdsc_both_lifetimes(self):
        assert expected_modifications(1430, 25 * DAYS, 1 * DAYS) == 57
        assert expected_modifications(1430, 2.5 * DAYS, 1 * DAYS) == 572

    def test_roundtrip(self):
        interval = modification_interval(100, 5000.0)
        assert mean_lifetime(100, interval) == pytest.approx(5000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            modification_interval(0, 100.0)
        with pytest.raises(ValueError):
            modification_interval(10, 0.0)
        with pytest.raises(ValueError):
            mean_lifetime(10, -1.0)


class TestSchedule:
    def test_schedule_times_fixed_interval(self):
        sched = generate_schedule(
            ["/a", "/b"], duration=100.0, mean_lifetime_seconds=40.0,
            rng=random.Random(0),
        )
        times = [m.time for m in sched]
        assert times == [20.0, 40.0, 60.0, 80.0, 100.0]

    def test_schedule_urls_from_catalog(self):
        urls = ["/a", "/b", "/c"]
        sched = generate_schedule(urls, 1000.0, 30.0, random.Random(1))
        assert all(m.url in urls for m in sched)

    def test_schedule_deterministic(self):
        urls = [f"/u{i}" for i in range(10)]
        a = generate_schedule(urls, 500.0, 100.0, random.Random(3))
        b = generate_schedule(urls, 500.0, 100.0, random.Random(3))
        assert a == b

    def test_empty_urls_rejected(self):
        with pytest.raises(ValueError):
            generate_schedule([], 100.0, 10.0, random.Random(0))


class TestModifier:
    def test_touch_and_check_in_called_in_order(self):
        sim = Simulator()
        sched = generate_schedule(["/a"], 10.0, 5.0, random.Random(0))
        calls = []
        coordinator = TimeCoordinator(sim, interval=5.0)

        def log(kind):
            return lambda url: calls.append(
                (kind, url, coordinator.trace_time, sim.now)
            )

        modifier = Modifier(
            sim, sched, touch=log("touch"), check_in=log("check-in"),
            overhead=1.0,
        )
        coordinator.register(modifier.participant)
        sim.process(coordinator.run(15.0))
        sim.run()
        # Each modification lands in the trace interval holding its
        # schedule time; the per-touch overhead advances the wall clock.
        assert calls == [
            ("touch", "/a", 5.0, 0.0),
            ("check-in", "/a", 5.0, 0.0),
            ("touch", "/a", 10.0, 1.0),
            ("check-in", "/a", 10.0, 1.0),
        ]
        assert modifier.modifications_applied == 2
        assert coordinator.intervals_completed == 3

    def test_check_in_optional(self):
        sim = Simulator()
        sched = generate_schedule(["/a"], 5.0, 5.0, random.Random(0))
        touched = []
        modifier = Modifier(sim, sched, touch=touched.append)
        coordinator = TimeCoordinator(sim, interval=5.0)
        coordinator.register(modifier.participant)
        sim.process(coordinator.run(10.0))
        sim.run()
        assert touched == ["/a"]
        assert modifier.modifications_applied == 1
        # Zero overhead: modifications take no wall time.
        assert sim.now == 0.0


class TestStreams:
    def test_parse_stream(self):
        assert parse_stream("r r m r") == ["r", "r", "m", "r"]
        assert parse_stream("RRM") == ["r", "r", "m"]
        with pytest.raises(ValueError):
            parse_stream("r x m")

    def test_paper_example_ri_is_4(self):
        # Section 3: "r r r m m m r r m r r r m m r" has RI = 4.
        counts = count_r_ri(parse_stream("r r r m m m r r m r r r m m r"))
        assert counts.reads == 9
        assert counts.intervals == 4
        assert counts.repeats == 5

    def test_all_reads_single_interval(self):
        counts = count_r_ri(parse_stream("r r r r"))
        assert counts == count_r_ri(["r"] * 4)
        assert counts.intervals == 1

    def test_modifications_without_reads(self):
        counts = count_r_ri(parse_stream("m m m"))
        assert counts.reads == 0
        assert counts.intervals == 0

    def test_trailing_modification_does_not_add_interval(self):
        counts = count_r_ri(parse_stream("r m"))
        assert counts.intervals == 1

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError):
            count_r_ri(["r", "z"])

    def test_merge_events_modify_first_on_tie(self):
        stream = merge_events(read_times=[1.0, 2.0], modify_times=[2.0])
        assert stream == ["r", "m", "r"]

    @given(
        st.lists(st.sampled_from(["r", "m"]), max_size=200),
    )
    def test_ri_invariants(self, ops):
        counts = count_r_ri(ops)
        assert 0 <= counts.intervals <= counts.reads
        assert counts.reads == ops.count("r")
        # RI is at most one more than the number of modifications.
        assert counts.intervals <= ops.count("m") + 1
