"""Table 3 — EPA, SASK and ClarkNet replays under all three protocols.

Regenerates the paper's per-trace comparison blocks (hits, message rows,
latencies, server load) and asserts the qualitative results of
Section 5.2:

* invalidation's message count is within a few percent of (or below)
  adaptive TTL's; polling's is substantially higher;
* message bytes are nearly identical across approaches;
* polling has the highest minimum latency and server CPU;
* blocking invalidation produces the worst-case latency spikes;
* only adaptive TTL serves stale documents.
"""

import pytest
from conftest import write_results

from repro import format_comparison_table
from repro.obs import REPORT_EXPERIMENTS, REPORT_PROTOCOLS

EXPERIMENTS = [(t, d) for table, t, d in REPORT_EXPERIMENTS if table == 3]


@pytest.fixture(scope="module", params=EXPERIMENTS, ids=lambda e: f"{e[0]}-{e[1]:g}d")
def experiment(request, harness):
    trace_name, lifetime = request.param
    results = {
        key: harness(trace_name, lifetime, key) for key in REPORT_PROTOCOLS
    }
    return trace_name, lifetime, results


def test_replay_benchmark(benchmark, experiment):
    """One benchmark sample per trace: the three-protocol replay block."""
    trace_name, lifetime, results = experiment

    def render():
        block = format_comparison_table(
            [results[k] for k in REPORT_PROTOCOLS],
            title=(
                f"Trace {trace_name}, {results['polling'].total_requests} "
                f"requests, {results['polling'].files_modified} files modified "
                f"(mean lifetime {lifetime:g} days)"
            ),
        )
        write_results(f"table3_{trace_name.lower()}_{lifetime:g}d", block)
        return block

    block = benchmark.pedantic(render, rounds=1, iterations=1)
    assert "Total Messages" in block


def test_modification_counts_match_paper(experiment, scale):
    """Table 3 headers: EPA 72, SASK 1148, ClarkNet 40 files modified."""
    trace_name, lifetime, results = experiment
    expected = {"EPA": 72, "SASK": 1148, "ClarkNet": 40}[trace_name] * scale
    mods = results["invalidation"].files_modified
    # Scales with the file count (see conftest); exact at scale 1.0 up to
    # the modifier-interval rounding.
    assert mods == pytest.approx(expected, rel=0.08, abs=2)


def test_strong_consistency(experiment):
    _, _, results = experiment
    # Polling validates every serve: structurally no stale data.
    assert results["polling"].stale_serves == 0
    # Invalidation: no serve after a delivered invalidation, and only a
    # negligible number of reads concurrent with in-flight fan-outs.
    inval = results["invalidation"]
    assert inval.violations == 0
    assert results["polling"].violations == 0
    assert inval.stale_serves <= max(5, 0.01 * inval.total_requests)


def test_polling_message_overhead(experiment):
    """Polling generates ~10-50% more messages (paper Section 5.2)."""
    _, _, results = experiment
    ratio = (
        results["polling"].total_messages
        / results["invalidation"].total_messages
    )
    assert 1.05 < ratio < 1.8


def test_invalidation_vs_ttl_messages(experiment):
    """Invalidation: similar (within 6%) or fewer messages than TTL."""
    _, _, results = experiment
    assert results["invalidation"].total_messages <= (
        1.06 * results["ttl"].total_messages
    )


def test_bytes_nearly_identical(experiment):
    _, _, results = experiment
    sizes = [results[k].message_bytes for k in REPORT_PROTOCOLS]
    assert max(sizes) <= min(sizes) * 1.05


def test_polling_latency_floor(experiment):
    """Contacting the server on every hit: high minimum latency."""
    _, _, results = experiment
    assert results["polling"].min_latency > results["invalidation"].min_latency
    assert results["polling"].min_latency > results["ttl"].min_latency
    assert results["polling"].avg_latency >= results["invalidation"].avg_latency


def test_invalidation_worst_case_latency(experiment):
    """Blocking fan-out: invalidation's max latency dominates."""
    _, _, results = experiment
    assert (
        results["invalidation"].max_latency
        >= results["ttl"].max_latency
    )


def test_server_cpu_ordering(experiment):
    """Polling has the highest server CPU utilisation."""
    _, _, results = experiment
    polling_cpu = results["polling"].cpu_utilization
    assert polling_cpu >= results["invalidation"].cpu_utilization
    assert polling_cpu >= results["ttl"].cpu_utilization
    # Sanity: utilisations in a server-shaped band, not ~0 or saturated.
    for key in REPORT_PROTOCOLS:
        assert 0.02 < results[key].cpu_utilization < 0.95


def test_ttl_stale_hits_bounded_but_nonzero_overall(experiment):
    """The polling-vs-TTL transfer gap stays a small fraction of transfers."""
    trace_name, _, results = experiment
    ttl = results["ttl"]
    transfer_gap = results["polling"].replies_200 - ttl.replies_200
    # Paper: stale hits up to ~1% of file transfers (SASK worst).  The
    # gap may go negative: with 64 MB caches TTL's expired-first
    # replacement refetches copies that polling's LRU keeps (Section
    # 5.2).  tests/test_replay_experiment.py pins its sign and its
    # stale-serve bound with unbounded caches.
    assert abs(transfer_gap) <= 0.05 * results["polling"].replies_200
