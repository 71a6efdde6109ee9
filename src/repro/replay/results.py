"""Paper-style result tables.

Formats :class:`~repro.replay.experiment.ExperimentResult` objects as the
rows of Tables 3-4 (per-trace protocol comparison) and Table 5
(invalidation costs), so benchmark output can be eyeballed against the
paper directly.
"""

from __future__ import annotations

from typing import List, Sequence

from .experiment import ExperimentResult

__all__ = ["format_comparison_table", "format_invalidation_costs"]


def _fmt_bytes(n: int) -> str:
    if n >= 1 << 30:
        return f"{n / (1 << 30):.2f}GB"
    if n >= 1 << 20:
        return f"{n / (1 << 20):.0f}MB"
    return f"{n / 1024:.0f}KB"


def comparison_rows(results: Sequence[ExperimentResult]) -> List[tuple]:
    """(label, values-per-protocol) rows in the paper's Table 3/4 order."""
    return [
        ("Hits", [r.hits for r in results]),
        ("GET Requests", [r.gets for r in results]),
        ("If-Modified-Since", [r.ims for r in results]),
        ("Reply 200", [r.replies_200 for r in results]),
        ("Reply 304", [r.replies_304 for r in results]),
        ("Invalidations", [r.invalidations for r in results]),
        ("Total Messages", [r.total_messages for r in results]),
        ("Messages Bytes", [_fmt_bytes(r.message_bytes) for r in results]),
        ("Stale Serves", [r.stale_serves for r in results]),
        (
            "Mean Staleness",
            [f"{r.counters.staleness.mean:.1f}s" for r in results],
        ),
        ("Avg. Latency", [f"{r.avg_latency:.3f}" for r in results]),
        ("Min Latency", [f"{r.min_latency:.3f}" for r in results]),
        ("Max Latency", [f"{r.max_latency:.3f}" for r in results]),
        ("Server CPU", [f"{100 * r.cpu_utilization:.1f}%" for r in results]),
        (
            "Disk RW/s",
            [
                f"{r.disk_reads_per_sec:.2f};{r.disk_writes_per_sec:.2f}"
                for r in results
            ],
        ),
    ]


def format_comparison_table(
    results: Sequence[ExperimentResult], title: str = ""
) -> str:
    """Render a Table 3/4-style block comparing protocols on one trace."""
    if not results:
        raise ValueError("no results to format")
    trace = results[0].trace_name
    header = title or (
        f"Trace {trace}, {results[0].total_requests} requests, "
        f"{results[0].files_modified} files modified"
    )
    width = max(18, *(len(r.protocol) + 2 for r in results))
    lines = [header]
    lines.append(
        f"{'':24s}" + "".join(f"{r.protocol:>{width}s}" for r in results)
    )
    for label, values in comparison_rows(results):
        cells = "".join(f"{str(v):>{width}s}" for v in values)
        lines.append(f"{label:24s}{cells}")
    return "\n".join(lines)


def format_invalidation_costs(results: Sequence[ExperimentResult]) -> str:
    """Render a Table 5-style block (invalidation runs only)."""
    if not results:
        raise ValueError("no results to format")
    width = max(14, *(len(r.trace_name) + 2 for r in results))
    lines = ["Invalidation costs (Table 5)"]
    lines.append(
        f"{'':24s}" + "".join(f"{r.trace_name:>{width}s}" for r in results)
    )
    rows = [
        ("Storage", [_fmt_bytes(r.sitelist_storage_bytes) for r in results]),
        ("Entries", [r.sitelist_entries for r in results]),
        ("Avg. SiteList", [f"{r.sitelist_avg_len:.1f}" for r in results]),
        ("Max. SiteList", [r.sitelist_max_len for r in results]),
        ("Avg. Inval. Time", [f"{r.invalidation_time_avg:.3f}" for r in results]),
        ("Max. Inval. Time", [f"{r.invalidation_time_max:.3f}" for r in results]),
        ("Invalidations Sent", [r.invalidations_sent for r in results]),
    ]
    for label, values in rows:
        cells = "".join(f"{str(v):>{width}s}" for v in values)
        lines.append(f"{label:24s}{cells}")
    return "\n".join(lines)
