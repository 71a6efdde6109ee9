"""Tests for the post-run invariant audit."""

import dataclasses

import pytest

from repro.chaos import Fault, FaultSchedule
from repro.core import (
    adaptive_lease,
    adaptive_ttl,
    invalidation,
    lease_invalidation,
    poll_every_time,
    two_tier_lease,
)
from repro.replay import (
    AuditError,
    ExperimentConfig,
    audit_result,
    run_experiment,
)
from repro.sim import RngRegistry
from repro.traces import PROFILES, generate_trace
from repro.workload import DAYS


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace(PROFILES["SDSC"].scaled(0.03), RngRegistry(seed=5))


@pytest.mark.parametrize(
    "factory",
    [poll_every_time, invalidation, adaptive_ttl, two_tier_lease],
    ids=["polling", "invalidation", "ttl", "two-tier"],
)
def test_all_protocol_replays_audit_clean(small_trace, factory):
    result = run_experiment(
        ExperimentConfig(
            trace=small_trace, protocol=factory(), mean_lifetime=3 * DAYS
        )
    )
    checks = audit_result(result)
    assert "zero-violations" in checks
    assert "one-reply-per-request" in checks


def test_hierarchical_replay_audits_with_flag(small_trace):
    result = run_experiment(
        ExperimentConfig(
            trace=small_trace,
            protocol=invalidation(),
            mean_lifetime=3 * DAYS,
            hierarchy_parents=2,
        )
    )
    checks = audit_result(result, hierarchical=True)
    # Hop-exact checks skipped for hierarchies.
    assert "one-reply-per-request" not in checks
    assert "zero-violations" in checks


def test_audit_detects_tampering(small_trace):
    result = run_experiment(
        ExperimentConfig(
            trace=small_trace, protocol=poll_every_time(), mean_lifetime=3 * DAYS
        )
    )
    broken = dataclasses.replace(result, replies_200=result.replies_200 + 1)
    with pytest.raises(AuditError):
        audit_result(broken)


def test_audit_detects_violation_count(small_trace):
    result = run_experiment(
        ExperimentConfig(
            trace=small_trace, protocol=invalidation(), mean_lifetime=3 * DAYS
        )
    )
    result.counters.violations = 1
    with pytest.raises(AuditError, match="zero-violations"):
        audit_result(result)


def test_two_tier_lease_behind_parent_is_rejected():
    # Accepted, this replay served stale copies: the auditor counted 88
    # violations in 813 requests while counters.violations read 0.
    trace = generate_trace(PROFILES["EPA"].scaled(0.02), RngRegistry(11))
    with pytest.raises(ValueError, match="zero-length GET leases"):
        ExperimentConfig(
            trace=trace,
            protocol=two_tier_lease(),
            mean_lifetime=2 * DAYS,
            seed=11,
            hierarchy_parents=1,
            audit=True,
        )


@pytest.mark.xfail(
    strict=True,
    reason="the parent cache neither honours nor relays leases: once its "
    "short lease lapses the origin owes it no INVALIDATE, yet its copy "
    "still reaches the leaves",
)
@pytest.mark.parametrize(
    "name, seed, factory",
    [
        # 12 violations behind one parent; 0 flat.
        ("SASK", 3, lambda: lease_invalidation(lease_duration=600)),
        # 168 violations behind one parent; 0 flat.
        ("EPA", 1, lambda: lease_invalidation(lease_duration=10)),
        # 12 violations behind one parent; 0 flat.
        ("SASK", 3, adaptive_lease),
    ],
    ids=["lease600-SASK", "lease10-EPA", "adaptive-lease-SASK"],
)
def test_short_lease_behind_a_parent_is_clean(name, seed, factory):
    trace = generate_trace(PROFILES[name].scaled(0.02), RngRegistry(seed))
    result = run_experiment(
        ExperimentConfig(
            trace=trace,
            protocol=factory(),
            mean_lifetime=86400,
            seed=seed,
            hierarchy_parents=1,
            audit=True,
        )
    )
    assert result.violations == 0


def test_audited_replay_behind_a_parent_is_clean(small_trace):
    # A serve 0.8 ms after /doc/00039.html changed, while the origin still
    # owed parent-0 its INVALIDATE, was counted as silent staleness: the
    # auditor asked the origin about the leaf's client, but the origin's
    # obligation is keyed by the parent's client id.
    result = run_experiment(
        ExperimentConfig(
            trace=small_trace,
            protocol=invalidation(),
            mean_lifetime=3 * DAYS,
            hierarchy_parents=1,
            audit=True,
        )
    )
    assert result.chaos["violation_count"] == 0
    assert result.chaos["allowed_staleness"] == {"write-pending": 1}
    assert result.counters.violations == 0


def test_server_that_lost_its_site_log_invalidates_the_parent():
    # The origin forgets parent-0 with its site log and on recovery sends
    # INVALIDATE-by-server to its roster only.  The roster listed the leaf
    # proxies, which the origin does not serve behind a parent, so the
    # parent kept serving copies of documents modified during the outage:
    # two leaves served such a copy, 780 s and 1,089 s out of date.
    trace = generate_trace(PROFILES["EPA"].scaled(0.05), RngRegistry(seed=7))
    crash = Fault("server_crash", 450.0, 600.0, target="server",
                  params={"lose_sitelog": True})
    result = run_experiment(
        ExperimentConfig(
            trace=trace,
            protocol=invalidation(),
            mean_lifetime=7 * DAYS,
            seed=7,
            hierarchy_parents=1,
            fault_schedule=FaultSchedule(seed=0, horizon=1000.0, faults=(crash,)),
            audit=True,
        )
    )
    assert result.violations == 0
