"""Table 5 — invalidation costs across all six replay experiments.

Site-list storage, average/maximum site-list length among modified
documents, and the wall time to send all INVALIDATEs per modification.
Reuses the invalidation runs of Tables 3-4 (session cache), exactly as
the paper derives Table 5 from the same replays.

Paper shapes asserted:

* storage is small — tens of bytes per request (entries x 28 bytes);
* the high-modification SDSC run (2.5-day lifetimes) has larger
  average/maximum invalidation times than the 25-day run ("when more
  files are modified, the chance that a file with a very long site list
  is modified increases");
* sending many invalidations serially over TCP takes real time (the
  scalability motivation for Section 6).
"""

import pytest
from conftest import write_results

from repro import format_invalidation_costs
from repro.obs import REPORT_EXPERIMENTS


@pytest.fixture(scope="module")
def invalidation_results(harness):
    results = []
    for _table, trace_name, lifetime in REPORT_EXPERIMENTS:
        result = harness(trace_name, lifetime, "invalidation")
        # Distinguish the two SDSC rows the way the paper does.
        result.trace_name = f"{trace_name}({result.files_modified})"
        results.append(result)
    return results


def test_table5_benchmark(benchmark, invalidation_results):
    def render():
        block = format_invalidation_costs(invalidation_results)
        write_results("table5_invalidation_costs", block)
        return block

    block = benchmark.pedantic(render, rounds=1, iterations=1)
    assert "Max. SiteList" in block


def test_storage_is_small(invalidation_results):
    """Tens of bytes per request, well under a couple of MB per trace."""
    for result in invalidation_results:
        per_request = result.sitelist_storage_bytes / result.total_requests
        assert per_request < 40.0
        assert result.sitelist_storage_bytes < 4 * 1024 * 1024


def test_sitelist_lengths_sane(invalidation_results):
    for result in invalidation_results:
        assert result.sitelist_max_len >= result.sitelist_avg_len >= 0
        # A site list can never exceed the trace's client population.
        assert result.sitelist_max_len <= result.total_requests


def test_invalidation_times_measured(invalidation_results):
    for result in invalidation_results:
        if result.invalidations_sent:
            assert result.invalidation_time_max >= result.invalidation_time_avg
            assert result.invalidation_time_avg >= 0.0


def test_sdsc_modification_rate_raises_invalidation_time(invalidation_results):
    sdsc = [r for r in invalidation_results if r.trace_name.startswith("SDSC")]
    fast = max(sdsc, key=lambda r: r.files_modified)
    slow = min(sdsc, key=lambda r: r.files_modified)
    # The 2.5-day run modifies ~10x more files...
    assert fast.files_modified > 5 * slow.files_modified
    # ...and its worst-case fan-out is at least as long.
    assert fast.invalidation_time_max >= slow.invalidation_time_max * 0.8
