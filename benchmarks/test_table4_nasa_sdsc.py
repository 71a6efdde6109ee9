"""Table 4 — NASA and the two SDSC lifetime runs.

Same columns and assertions as Table 3, plus the SDSC-specific
observation the paper makes: with a 2.5-day mean lifetime (576
modifications) the invalidation traffic and fan-out times rise sharply
relative to the 25-day run (57 modifications).
"""

import pytest
from conftest import write_results

from repro import format_comparison_table
from repro.obs import REPORT_EXPERIMENTS, REPORT_PROTOCOLS

EXPERIMENTS = [(t, d) for table, t, d in REPORT_EXPERIMENTS if table == 4]


@pytest.fixture(scope="module", params=EXPERIMENTS, ids=lambda e: f"{e[0]}-{e[1]:g}d")
def experiment(request, harness):
    trace_name, lifetime = request.param
    results = {key: harness(trace_name, lifetime, key) for key in REPORT_PROTOCOLS}
    return trace_name, lifetime, results


def test_replay_benchmark(benchmark, experiment):
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
        write_results(f"table4_{trace_name.lower()}_{lifetime:g}d", block)
        return block

    block = benchmark.pedantic(render, rounds=1, iterations=1)
    assert trace_name in block


def test_modification_counts_match_paper(experiment, scale):
    """Table 4 headers: NASA 144, SDSC 57 / 576 files modified."""
    trace_name, lifetime, results = experiment
    expected = {("NASA", 7.0): 144, ("SDSC", 25.0): 57, ("SDSC", 2.5): 576}[
        (trace_name, lifetime)
    ] * scale
    assert results["invalidation"].files_modified == pytest.approx(
        expected, rel=0.08, abs=2
    )


def test_strong_consistency(experiment):
    _, _, results = experiment
    assert results["polling"].stale_serves == 0
    inval = results["invalidation"]
    assert inval.violations == 0
    assert results["polling"].violations == 0
    assert inval.stale_serves <= max(5, 0.01 * inval.total_requests)


def test_polling_message_overhead(experiment):
    _, _, results = experiment
    ratio = (
        results["polling"].total_messages
        / results["invalidation"].total_messages
    )
    assert ratio > 1.05


def test_invalidation_vs_ttl_messages(experiment):
    _, _, results = experiment
    assert results["invalidation"].total_messages <= (
        1.06 * results["ttl"].total_messages
    )


def test_bytes_nearly_identical(experiment):
    _, _, results = experiment
    sizes = [results[k].message_bytes for k in REPORT_PROTOCOLS]
    assert max(sizes) <= min(sizes) * 1.05


def test_polling_latency_floor(experiment):
    _, _, results = experiment
    assert results["polling"].min_latency > results["invalidation"].min_latency
    assert results["polling"].min_latency > results["ttl"].min_latency


def test_server_cpu_ordering(experiment):
    _, _, results = experiment
    polling_cpu = results["polling"].cpu_utilization
    assert polling_cpu >= results["invalidation"].cpu_utilization
    assert polling_cpu >= results["ttl"].cpu_utilization


def test_sdsc_lifetime_contrast(harness):
    """More modifications -> more invalidations and longer fan-outs."""
    fast = harness("SDSC", 2.5, "invalidation")
    slow = harness("SDSC", 25.0, "invalidation")
    assert fast.files_modified > 5 * slow.files_modified
    assert fast.invalidations > slow.invalidations
    assert fast.invalidation_time_avg >= 0
    # The 2.5-day run does strictly more consistency work.
    assert fast.invalidations_sent >= slow.invalidations_sent
