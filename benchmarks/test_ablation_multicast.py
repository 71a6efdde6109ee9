"""Ablation D — multicast invalidation (paper Section 5.2 suggestion).

"Sending a large number of invalidation messages via TCP can lead to
long delays ... invalidation needs to either limit the number of
invalidation messages for each document (see Section 6), or use
multicast schemes."

We run the worst fan-out experiment (SASK, 1148 modifications, site
lists up to ~700) with per-client unicast vs. one-message-per-proxy
multicast and measure the fan-out times and message counts.
"""

import pytest
from conftest import write_results


@pytest.fixture(scope="module")
def runs(harness):
    return {
        "unicast": harness("SASK", 14.0, "invalidation"),
        "multicast": harness("SASK", 14.0, "invalidation-multicast"),
    }


def render(runs) -> str:
    lines = ["Ablation D: unicast vs multicast invalidation (SASK, 14d)"]
    lines.append(f"{'metric':28s}{'unicast':>14s}{'multicast':>14s}")
    for label, attr, fmt in [
        ("invalidation messages", "invalidations", "{}"),
        ("avg fan-out time (s)", "invalidation_time_avg", "{:.3f}"),
        ("max fan-out time (s)", "invalidation_time_max", "{:.3f}"),
        ("max request latency (s)", "max_latency", "{:.3f}"),
        ("total messages", "total_messages", "{}"),
        ("message bytes", "message_bytes", "{}"),
    ]:
        lines.append(
            f"{label:28s}"
            f"{fmt.format(getattr(runs['unicast'], attr)):>14s}"
            f"{fmt.format(getattr(runs['multicast'], attr)):>14s}"
        )
    return "\n".join(lines)


def test_ablation_benchmark(benchmark, runs):
    block = benchmark.pedantic(lambda: render(runs), rounds=1, iterations=1)
    write_results("ablation_multicast", block)
    assert "multicast" in block


def test_multicast_sends_far_fewer_messages(runs):
    # At most one message per proxy (4) per modification.
    assert runs["multicast"].invalidations <= 4 * runs["unicast"].files_modified
    assert runs["multicast"].invalidations < 0.5 * runs["unicast"].invalidations


def test_multicast_shrinks_fanout_times(runs):
    assert (
        runs["multicast"].invalidation_time_max
        < runs["unicast"].invalidation_time_max
    )
    assert (
        runs["multicast"].invalidation_time_avg
        <= runs["unicast"].invalidation_time_avg
    )


def test_multicast_cuts_blocking_latency_spike(runs):
    assert runs["multicast"].max_latency < runs["unicast"].max_latency


def test_multicast_preserves_consistency(runs):
    assert runs["multicast"].violations == 0