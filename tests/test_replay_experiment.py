"""Integration tests: full trace replays on scaled-down workloads."""

import dataclasses

import pytest

from repro.core import (
    adaptive_ttl,
    invalidation,
    lease_invalidation,
    poll_every_time,
    two_tier_lease,
)
from repro.replay import (
    ExperimentConfig,
    format_comparison_table,
    format_invalidation_costs,
    run_experiment,
    shard_for_client,
    shard_records,
)
from repro.sim import RngRegistry
from repro.traces import PROFILES, generate_trace
from repro.workload import DAYS

SCALE = 0.03
# A 5-day lifetime on the scaled catalog yields ~22 modifications —
# enough invalidation activity to exercise every path while keeping the
# modification/request ratio in the regime the paper studies.
LIFETIME = 5 * DAYS


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace(PROFILES["EPA"].scaled(SCALE), RngRegistry(seed=11))


def run(trace, protocol, **kw):
    config = ExperimentConfig(
        trace=trace, protocol=protocol, mean_lifetime=LIFETIME, **kw
    )
    return run_experiment(config)


@pytest.fixture(scope="module")
def three_results(small_trace):
    return {
        "polling": run(small_trace, poll_every_time()),
        "invalidation": run(small_trace, invalidation()),
        "ttl": run(small_trace, adaptive_ttl()),
    }


class TestSharding:
    def test_shard_stability(self):
        assert shard_for_client("client-1", 4) == shard_for_client("client-1", 4)

    def test_shard_bounds(self):
        assert all(0 <= shard_for_client(f"c{i}", 4) < 4 for i in range(100))
        with pytest.raises(ValueError):
            shard_for_client("c", 0)

    def test_shard_records_partition(self, small_trace):
        shards = shard_records(small_trace.records, 4)
        assert sum(len(s) for s in shards) == len(small_trace.records)
        for shard in shards:
            clients = {r.client for r in shard}
            for other in shards:
                if other is not shard:
                    assert clients.isdisjoint({r.client for r in other})


class TestReplayBasics:
    def test_every_request_replayed(self, small_trace, three_results):
        for result in three_results.values():
            assert result.counters.requests == len(small_trace.records)
            assert result.counters.failed == 0

    def test_modifications_applied(self, three_results):
        expected = three_results["polling"].files_modified
        assert expected > 0
        for result in three_results.values():
            assert result.files_modified == expected

    def test_wire_consistency(self, three_results):
        for result in three_results.values():
            # Every GET/IMS got exactly one reply.
            assert result.gets + result.ims == result.replies_200 + result.replies_304
            assert result.total_messages == (
                result.gets
                + result.ims
                + result.replies_200
                + result.replies_304
                + result.invalidations
            )

    def test_transfers_match_200s(self, three_results):
        for result in three_results.values():
            assert result.counters.transfers == result.replies_200

    def test_wall_time_positive_and_compressed(self, small_trace, three_results):
        for result in three_results.values():
            assert 0 < result.wall_time < small_trace.duration


class TestPaperShape:
    """The qualitative results of Section 5.2 on a scaled workload."""

    def test_strong_protocols_never_violate(self, three_results):
        # Polling validates every serve: structurally no stale data.
        assert three_results["polling"].stale_serves == 0
        assert three_results["polling"].violations == 0
        # Invalidation: never serves a copy whose invalidation was
        # delivered; reads concurrent with in-flight fan-outs are the
        # only (permitted) oracle-stale serves.
        inval = three_results["invalidation"]
        assert inval.violations == 0
        assert inval.stale_serves <= max(3, 0.01 * inval.counters.requests)

    def test_polling_sends_most_messages(self, three_results):
        polling = three_results["polling"].total_messages
        inval = three_results["invalidation"].total_messages
        ttl = three_results["ttl"].total_messages
        assert polling > inval
        assert polling > ttl

    def test_invalidation_messages_not_worse_than_ttl(self, three_results):
        # Paper: invalidation generates similar (within 6%) or fewer
        # messages than adaptive TTL.
        inval = three_results["invalidation"].total_messages
        ttl = three_results["ttl"].total_messages
        assert inval <= ttl * 1.06

    def test_message_bytes_nearly_identical(self, three_results):
        sizes = [r.message_bytes for r in three_results.values()]
        assert max(sizes) <= min(sizes) * 1.05

    def test_polling_min_latency_highest(self, three_results):
        # Contacting the server on every hit costs polling a high
        # minimum latency.
        polling_min = three_results["polling"].min_latency
        assert polling_min > three_results["invalidation"].min_latency
        assert polling_min > three_results["ttl"].min_latency

    def test_polling_highest_server_cpu(self, three_results):
        polling_cpu = three_results["polling"].cpu_utilization
        assert polling_cpu >= three_results["invalidation"].cpu_utilization
        assert polling_cpu >= three_results["ttl"].cpu_utilization

    def test_blocking_invalidation_max_latency_spike(self, three_results):
        # The accelerator blocks during fan-out: worst-case latency is
        # significantly larger than under the other approaches.
        inval = three_results["invalidation"]
        assert inval.invalidations > 0
        assert inval.max_latency > three_results["ttl"].max_latency

    def test_ttl_transfer_savings_equal_stale_intervals(self, three_results):
        # Stale hits are estimated as the polling-vs-TTL transfer gap.
        gap = (
            three_results["polling"].replies_200
            - three_results["ttl"].replies_200
        )
        assert gap >= 0
        # The gap exists only if some stale serving happened.
        if gap > 0:
            assert three_results["ttl"].stale_serves >= gap

    def test_invalidation_table_populated_only_for_invalidation(self, three_results):
        assert three_results["invalidation"].sitelist_entries > 0
        assert three_results["polling"].sitelist_entries == 0
        assert three_results["ttl"].sitelist_entries == 0

    def test_invalidation_costs_measured(self, three_results):
        inval = three_results["invalidation"]
        assert inval.invalidations_sent == inval.invalidations
        assert inval.invalidation_time_max >= inval.invalidation_time_avg > 0
        assert inval.sitelist_storage_bytes == 28 * inval.sitelist_entries


class TestDeterminism:
    def test_same_seed_same_results(self, small_trace):
        a = run(small_trace, invalidation())
        b = run(small_trace, invalidation())
        assert a.total_messages == b.total_messages
        assert a.message_bytes == b.message_bytes
        assert a.avg_latency == b.avg_latency
        assert a.wall_time == b.wall_time

    def test_different_seed_different_wall(self, small_trace):
        a = run(small_trace, invalidation(), seed=1)
        b = run(small_trace, invalidation(), seed=2)
        # Think-time jitter differs; message counts may coincide but
        # timing must not be identical.
        assert a.wall_time != b.wall_time


class TestLeaseProtocols:
    def test_lease_bounds_sitelists(self, small_trace):
        plain = run(small_trace, invalidation())
        leased = run(small_trace, lease_invalidation(lease_duration=120.0))
        # Short (wall-time) leases: expired entries are skipped at
        # modification time, so lists stay much smaller.
        assert leased.sitelist_avg_len <= plain.sitelist_avg_len

    def test_two_tier_reduces_entries_for_extra_ims(self, small_trace):
        plain = run(small_trace, invalidation())
        two_tier = run(small_trace, two_tier_lease(lease_duration=1e9))
        assert two_tier.sitelist_entries < plain.sitelist_entries
        assert two_tier.ims > plain.ims
        assert two_tier.stale_serves == 0

    def test_decoupled_send_lowers_max_latency(self, small_trace):
        blocking = run(small_trace, invalidation(blocking=True))
        decoupled = run(small_trace, invalidation(blocking=False))
        assert decoupled.max_latency < blocking.max_latency
        assert decoupled.invalidations == blocking.invalidations


class TestFormatting:
    def test_comparison_table_renders(self, three_results):
        text = format_comparison_table(list(three_results.values()))
        assert "Total Messages" in text
        assert "poll-every-time" in text
        assert "Disk RW/s" in text

    def test_invalidation_costs_table_renders(self, three_results):
        text = format_invalidation_costs([three_results["invalidation"]])
        assert "Max. SiteList" in text

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            format_comparison_table([])
        with pytest.raises(ValueError):
            format_invalidation_costs([])


class TestOneRequestRoute:
    def test_instrumented_replay_takes_the_one_route(
        self, small_trace, monkeypatch
    ):
        # An auditor, an observation and a kernel tracer all ride the
        # callback chain of an uninstrumented replay: every request
        # enters through ProxyCache.submit.
        from repro.obs import Observation
        from repro.proxy.proxy import ProxyCache

        calls = []
        original = ProxyCache.submit

        def counting(self, *args):
            calls.append(args[1])
            return original(self, *args)

        monkeypatch.setattr(ProxyCache, "submit", counting)
        observation = Observation(deep=True)
        result = run(small_trace, invalidation(), audit=True,
                     observation=observation)
        observation.close()
        assert len(calls) == result.total_requests > 0
        assert observation.tracer.counts["Callback"] > 0

    def test_kernel_events_per_request_pinned(self):
        # SASK 14 d, the short-lived row with the most modifications per
        # document: each request costs its own few events, not a share
        # of the lock-step scaffolding (about 38 per request when every
        # participant ran a process in every interval).
        from repro.obs import Observation

        trace = generate_trace(PROFILES["SASK"].scaled(0.025), RngRegistry(5))
        observation = Observation(deep=True)
        result = run_experiment(ExperimentConfig(
            trace=trace, protocol=invalidation(), mean_lifetime=14 * DAYS,
            seed=5, observation=observation,
        ))
        observation.close()
        assert result.total_requests == 1287
        assert observation.tracer.total / result.total_requests < 20


def test_index_error_in_a_request_callback_reaches_the_caller():
    """A callback's IndexError is not mistaken for an empty event queue."""
    from repro.core.invalidation import InvalidationPolicy

    class BuggyPolicy(InvalidationPolicy):
        def action(self, entry, now):
            raise IndexError("policy bug")

    trace = generate_trace(PROFILES["EPA"].scaled(0.02), RngRegistry(seed=3))
    protocol = dataclasses.replace(invalidation(), client_policy=BuggyPolicy())
    with pytest.raises(IndexError, match="policy bug"):
        run(trace, protocol, seed=3)


def test_violations_prefers_a_strong_auditors_count():
    from repro.replay import ExperimentResult

    result = ExperimentResult(
        protocol="p", trace_name="t", mean_lifetime=1.0,
        total_requests=0, files_modified=0,
    )
    result.counters.violations = 1
    assert result.violations == 1
    result.chaos = {"network": {}}  # fault-injected, no auditor
    assert result.violations == 1
    result.chaos = {"strong": False, "violation_count": 3}
    assert result.violations == 1
    result.chaos = {"strong": True, "violation_count": 3}
    assert result.violations == 3
