"""Deeper trace analytics (beyond the Table 2 summary).

Tools for understanding a workload before replaying it, and for
calibrating synthetic generators against real logs:

* :func:`popularity_curve` and :func:`fit_zipf_alpha` — the document
  popularity distribution and its Zipf exponent (log-log least squares).
* :func:`interarrival_stats` — request spacing.
* :func:`client_activity` — per-client request counts.
* :func:`pair_streams` — the timed read/modify stream of every (client,
  document) pair, which :mod:`repro.core.prediction` runs the Section 3
  model over.
* :func:`request_interval_stats` — aggregate R / RI structure over all
  (client, document) pairs given a modification schedule: exactly the
  quantities the Section 3 analysis is parameterised by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..workload.modifier import Modification
from ..workload.streams import MODIFY, READ, count_r_ri
from .record import Trace

__all__ = [
    "popularity_curve",
    "fit_zipf_alpha",
    "interarrival_stats",
    "client_activity",
    "pair_streams",
    "request_interval_stats",
    "IntervalStats",
]


def popularity_curve(trace: Trace) -> List[int]:
    """Request counts per document, most popular first."""
    counts: Dict[str, int] = {}
    for record in trace.records:
        counts[record.url] = counts.get(record.url, 0) + 1
    return sorted(counts.values(), reverse=True)


def fit_zipf_alpha(curve: Sequence[int], max_rank: int = 1000) -> float:
    """Least-squares Zipf exponent from a popularity curve.

    Fits ``log(count) = c - alpha * log(rank)`` over the head of the
    curve (rank 1..max_rank); returns 0.0 for degenerate curves.
    """
    points = [
        (math.log(rank + 1.0), math.log(count))
        for rank, count in enumerate(curve[:max_rank])
        if count > 0
    ]
    if len(points) < 2:
        return 0.0
    n = len(points)
    sum_x = sum(x for x, _ in points)
    sum_y = sum(y for _, y in points)
    sum_xx = sum(x * x for x, _ in points)
    sum_xy = sum(x * y for x, y in points)
    denom = n * sum_xx - sum_x * sum_x
    if denom == 0:
        return 0.0
    slope = (n * sum_xy - sum_x * sum_y) / denom
    return -slope


def interarrival_stats(trace: Trace) -> Tuple[float, float]:
    """(mean, max) spacing between consecutive requests, in seconds."""
    times = [r.timestamp for r in trace.records]
    if len(times) < 2:
        return (0.0, 0.0)
    gaps = [b - a for a, b in zip(times, times[1:])]
    return (sum(gaps) / len(gaps), max(gaps))


def client_activity(trace: Trace) -> List[int]:
    """Requests per client, most active first."""
    counts: Dict[str, int] = {}
    for record in trace.records:
        counts[record.client] = counts.get(record.client, 0) + 1
    return sorted(counts.values(), reverse=True)


@dataclass(frozen=True)
class IntervalStats:
    """Aggregate R/RI structure of a trace (Section 3 quantities)."""

    pairs: int
    total_reads: int
    total_intervals: int
    repeat_reads: int

    @property
    def repeat_fraction(self) -> float:
        """Fraction of reads that repeat within an interval (R-RI)/R —
        the reads weak consistency could possibly save transfers on."""
        return self.repeat_reads / self.total_reads if self.total_reads else 0.0

    @property
    def mean_interval_length(self) -> float:
        """Average reads per request interval."""
        return (
            self.total_reads / self.total_intervals
            if self.total_intervals
            else 0.0
        )


def pair_streams(
    trace: Trace, modifications: Sequence[Modification]
) -> Dict[Tuple[str, str], List[Tuple[float, str]]]:
    """Build the timed r/m stream for every (client, url) pair.

    Each pair's stream holds that client's requests for the URL plus all
    of the URL's modifications, time-merged (modification-first on ties,
    matching the write-completion convention).
    """
    reads: Dict[Tuple[str, str], List[float]] = {}
    for record in trace.records:
        reads.setdefault((record.client, record.url), []).append(record.timestamp)

    mods_by_url: Dict[str, List[float]] = {}
    for mod in modifications:
        mods_by_url.setdefault(mod.url, []).append(mod.time)

    streams: Dict[Tuple[str, str], List[Tuple[float, str]]] = {}
    for (client, url), read_times in reads.items():
        events = [(t, 0, MODIFY) for t in mods_by_url.get(url, ())]
        events.extend((t, 1, READ) for t in read_times)
        events.sort()
        streams[(client, url)] = [(t, op) for t, _, op in events]
    return streams


def request_interval_stats(
    trace: Trace, modifications: Sequence[Modification]
) -> IntervalStats:
    """Compute aggregate R and RI over all (client, document) pairs.

    This is the workload-side input to the Table 1 analysis: the minimum
    possible network cost is ``total_intervals`` control messages plus
    ``total_intervals`` file transfers.
    """
    streams = pair_streams(trace, modifications)
    total_reads = 0
    total_intervals = 0
    for events in streams.values():
        counts = count_r_ri([op for _, op in events])
        total_reads += counts.reads
        total_intervals += counts.intervals
    return IntervalStats(
        pairs=len(streams),
        total_reads=total_reads,
        total_intervals=total_intervals,
        repeat_reads=total_reads - total_intervals,
    )
