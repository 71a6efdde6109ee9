"""Chaos harness tests: schedules, auditor, campaign, CLI, mutation."""

import json

import pytest

from repro.chaos import (
    MAX_CLOCK_SKEW,
    ConsistencyAuditor,
    Fault,
    FaultSchedule,
    random_schedule,
    run_campaign,
    shrink_schedule,
)
from repro.cli import main
from repro.core import adaptive_ttl, invalidation, lease_invalidation
from repro.proxy.proxy import ProxyCache
from repro.replay import (
    ExperimentConfig,
    result_from_dict,
    result_to_dict,
    run_experiment,
)
from repro.sim import RngRegistry
from repro.traces import PROFILES, generate_trace
from repro.workload import DAYS

SCALE = 0.01
LIFETIME = 5 * DAYS
PROXIES = ["proxy-0", "proxy-1", "proxy-2", "proxy-3"]


@pytest.fixture(scope="module")
def tiny_trace():
    return generate_trace(PROFILES["EPA"].scaled(SCALE), RngRegistry(seed=11))


def config_for(trace, protocol, **kw):
    return ExperimentConfig(
        trace=trace, protocol=protocol, mean_lifetime=LIFETIME, seed=11, **kw
    )


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault(kind="meteor", at=1.0, until=2.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            Fault(kind="proxy_crash", at=2.0, until=2.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Fault(kind="proxy_crash", at=-1.0, until=2.0)

    @pytest.mark.parametrize(
        "fault",
        [
            {"kind": "proxy_crash", "at": 1.0, "until": float("nan")},
            {"kind": "proxy_crash", "at": float("nan"), "until": 2.0},
            {"kind": "proxy_crash", "at": 1.0, "until": float("inf")},
            {"kind": "link_fault", "at": 1.0, "until": 2.0,
             "params": {"src": "server", "dst": "*", "jitter": float("nan")}},
            {"kind": "link_fault", "at": 1.0, "until": 2.0,
             "params": {"src": "server", "dst": "*", "extra_delay": float("inf")}},
        ],
        ids=["until-nan", "at-nan", "until-inf", "jitter-nan", "extra-delay-inf"],
    )
    def test_non_finite_fault_rejected_from_json(self, fault):
        # json.dumps writes NaN/Infinity, which json.loads accepts.
        text = json.dumps({"seed": 1, "horizon": 10.0, "faults": [fault]})
        with pytest.raises(ValueError, match="finite"):
            FaultSchedule.from_json(text)


class TestScheduleSampling:
    def test_deterministic_in_seed(self):
        a = random_schedule(99, horizon=500.0, proxies=PROXIES)
        b = random_schedule(99, horizon=500.0, proxies=PROXIES)
        assert a == b

    def test_different_seeds_differ(self):
        schedules = {
            random_schedule(s, horizon=500.0, proxies=PROXIES).to_json()
            for s in range(20)
        }
        assert len(schedules) > 1

    def test_fault_count_bounds(self):
        for seed in range(30):
            sched = random_schedule(
                seed, horizon=500.0, proxies=PROXIES, max_faults=4
            )
            assert 1 <= len(sched) <= 4

    def test_faults_heal_inside_horizon(self):
        for seed in range(30):
            sched = random_schedule(seed, horizon=500.0, proxies=PROXIES)
            for fault in sched.faults:
                assert 0 < fault.at < fault.until <= 0.95 * 500.0 + 1e-9

    def test_clock_skew_bounded(self):
        for seed in range(50):
            sched = random_schedule(seed, horizon=500.0, proxies=PROXIES)
            for fault in sched.faults:
                if fault.kind == "clock_skew":
                    assert abs(fault.params["skew"]) <= MAX_CLOCK_SKEW

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            random_schedule(1, horizon=0.0, proxies=PROXIES)
        with pytest.raises(ValueError):
            random_schedule(1, horizon=10.0, proxies=[])
        with pytest.raises(ValueError):
            random_schedule(1, horizon=10.0, proxies=PROXIES, min_faults=0)


class TestScheduleSerialization:
    def test_json_roundtrip(self):
        sched = random_schedule(7, horizon=400.0, proxies=PROXIES)
        assert FaultSchedule.from_json(sched.to_json()) == sched

    def test_json_is_plain_data(self):
        sched = random_schedule(7, horizon=400.0, proxies=PROXIES)
        payload = json.loads(sched.to_json())
        assert set(payload) == {"seed", "horizon", "faults"}

    def test_without_removes_one_fault(self):
        sched = random_schedule(3, horizon=400.0, proxies=PROXIES, min_faults=2)
        smaller = sched.without(0)
        assert len(smaller) == len(sched) - 1
        assert smaller.faults == sched.faults[1:]

    def test_describe_covers_every_fault(self):
        sched = random_schedule(5, horizon=400.0, proxies=PROXIES)
        assert len(sched.describe()) == len(sched)


class TestExperimentIntegration:
    @pytest.fixture(scope="class")
    def faulted_result(self, tiny_trace):
        base = config_for(tiny_trace, invalidation(), audit=True)
        baseline = run_experiment(base)
        sched = random_schedule(
            21, horizon=max(baseline.wall_time, 1.0), proxies=PROXIES
        )
        config = config_for(
            tiny_trace, invalidation(), audit=True, fault_schedule=sched
        )
        return run_experiment(config)

    def test_chaos_block_present(self, faulted_result):
        chaos = faulted_result.chaos
        assert chaos is not None
        assert chaos["strong"] is True
        assert chaos["serves"] > 0
        assert "network" in chaos and "schedule" in chaos and "fault_log" in chaos

    def test_strong_protocol_stays_clean(self, faulted_result):
        assert faulted_result.chaos["violation_count"] == 0
        assert faulted_result.chaos["violations"] == []

    def test_fault_log_records_injections(self, faulted_result):
        kinds = [e["kind"] for e in faulted_result.chaos["fault_log"]]
        assert kinds  # at least one fault fired

    def test_schedule_accepted_as_dict(self, tiny_trace):
        sched = random_schedule(5, horizon=50.0, proxies=PROXIES)
        config = config_for(
            tiny_trace, invalidation(), audit=True,
            fault_schedule=sched.to_dict(),
        )
        result = run_experiment(config)
        assert result.chaos["schedule"] == sched.to_dict()

    def test_chaos_survives_serialization(self, faulted_result):
        data = result_to_dict(faulted_result)
        rebuilt = result_from_dict(data)
        assert rebuilt.chaos == faulted_result.chaos

    def test_no_chaos_block_without_hooks(self, tiny_trace):
        result = run_experiment(config_for(tiny_trace, invalidation()))
        assert result.chaos is None
        assert "chaos" not in result_to_dict(result)

    def test_weak_protocol_staleness_is_allowed(self, tiny_trace):
        config = config_for(tiny_trace, adaptive_ttl(), audit=True)
        result = run_experiment(config)
        chaos = result.chaos
        assert chaos["strong"] is False
        assert chaos["violation_count"] == 0
        if chaos["stale_serves"]:
            assert chaos["allowed_staleness"] == {
                "weak-protocol": chaos["stale_serves"]
            }


class TestAuditorUnit:
    class _Server:
        up = True

        def write_pending(self, url, client_id):
            return False

        def recovery_pending(self, proxy):
            return False

        def change_pending_detection(self, url):
            return False

    class _Proxy:
        address = "proxy-0"

        class sim:
            now = 1.0

    class _Entry:
        url = "/a"
        client_id = "c1"

    class _Outcome:
        validated = False
        violation = False
        stale_served = True
        staleness_age = 3.0

    def test_unexcused_staleness_is_violation(self):
        auditor = ConsistencyAuditor(self._Server(), strong=True)
        auditor.on_serve(self._Proxy(), self._Entry(), self._Outcome())
        assert auditor.violation_count == 1
        assert auditor.violations[0].kind == "silent-staleness"

    def test_origin_down_excuses(self):
        server = self._Server()
        server.up = False
        auditor = ConsistencyAuditor(server, strong=True)
        auditor.on_serve(self._Proxy(), self._Entry(), self._Outcome())
        assert auditor.violation_count == 0
        assert auditor.allowed["origin-down"] == 1

    def test_validated_serve_ignored(self):
        outcome = self._Outcome()
        outcome.validated = True
        auditor = ConsistencyAuditor(self._Server(), strong=True)
        auditor.on_serve(self._Proxy(), self._Entry(), outcome)
        assert auditor.violation_count == 0
        assert auditor.stale_serves == 0


class TestCampaign:
    def test_strong_campaign_clean(self, tiny_trace):
        base = config_for(tiny_trace, invalidation())
        report = run_campaign(base, num_schedules=3, seed=7)
        assert report.ok
        assert report.total_violations == 0
        assert len(report.verdicts) == 4  # baseline + 3 schedules
        assert report.reproducers == {}

    def test_lease_campaign_clean_with_grace(self, tiny_trace):
        # Leases + sampled clock skew: only safe because the campaign
        # raises lease_grace above MAX_CLOCK_SKEW.
        base = config_for(tiny_trace, lease_invalidation())
        report = run_campaign(base, num_schedules=3, seed=7)
        assert report.ok

    def test_weak_campaign_reports_staleness_not_violations(self, tiny_trace):
        base = config_for(tiny_trace, adaptive_ttl())
        report = run_campaign(base, num_schedules=3, seed=7)
        assert report.ok  # staleness is the weak protocol's trade-off
        allowed = report.allowed_staleness()
        assert set(allowed) <= {"weak-protocol"}

    def test_report_round_trips_to_json(self, tiny_trace):
        base = config_for(tiny_trace, invalidation())
        report = run_campaign(base, num_schedules=2, seed=7)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert len(payload["verdicts"]) == 3

    def test_rejects_empty_campaign(self, tiny_trace):
        with pytest.raises(ValueError):
            run_campaign(config_for(tiny_trace, invalidation()), num_schedules=0)


class TestMutationIsCaught:
    """Deliberately break the protocol; the auditor must notice and the
    shrinker must produce a tiny reproducer."""

    @pytest.fixture()
    def drop_url_invalidates(self, monkeypatch):
        original = ProxyCache._handle_invalidate

        def broken(self, message):
            if message.url is not None:
                return  # INVALIDATE-by-URL silently dropped: the bug
            return original(self, message)

        monkeypatch.setattr(ProxyCache, "_handle_invalidate", broken)

    def test_violation_detected_and_shrunk(self, tiny_trace, drop_url_invalidates):
        base = config_for(tiny_trace, invalidation())
        report = run_campaign(base, num_schedules=2, seed=7)
        assert not report.ok
        assert report.total_violations > 0
        assert report.verdicts[0].label == "baseline"
        # Every violation the details recorded is a silent-staleness one.
        kinds = {
            v["kind"] for verdict in report.verdicts for v in verdict.violations
        }
        assert kinds <= {"silent-staleness"}
        # The shrunk reproducers are minimal: the bug needs no faults at
        # all, so greedy removal must get (well) under three faults.
        assert report.reproducers
        for repro in report.reproducers.values():
            assert repro["violation_count"] > 0
            assert len(repro["schedule"]["faults"]) <= 3

    def test_shrink_is_a_fixpoint(self, tiny_trace, drop_url_invalidates):
        import dataclasses

        base = config_for(tiny_trace, invalidation(), audit=True)
        # Some schedules mask the bug (e.g. a cold restart discards the
        # stale copy), so scan for one that reproduces it.
        for seed in range(13, 33):
            sched = random_schedule(
                seed, horizon=400.0, proxies=PROXIES, min_faults=3
            )
            shrunk, count = shrink_schedule(base, sched)
            if count > 0:
                break
        else:
            pytest.fail("no sampled schedule reproduced the mutation")
        # No single further removal may keep the violation alive.
        for index in range(len(shrunk)):
            candidate = dataclasses.replace(
                base, fault_schedule=shrunk.without(index), audit=True
            )
            chaos = run_experiment(candidate).chaos
            assert chaos["violation_count"] == 0


class TestChaosCli:
    def test_clean_campaign_exits_zero(self, capsys):
        code = main(
            [
                "chaos",
                "--schedules", "2",
                "--scale", str(SCALE),
                "--lifetime-days", "5",
                "--protocol", "invalidation",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "CLEAN" in out

    def test_json_output(self, capsys):
        code = main(
            [
                "chaos",
                "--schedules", "2",
                "--scale", str(SCALE),
                "--lifetime-days", "5",
                "--protocol", "ttl",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strong"] is False
        assert payload["ok"] is True
