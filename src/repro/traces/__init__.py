"""Trace substrate: records, CLF I/O, synthetic generation, summaries."""

from .catalog import DAY, HOUR, PROFILES, TraceProfile, profile
from .clf import ClfEntry, format_clf_line, parse_clf_line, read_clf, write_clf
from .record import Trace, TraceRecord
from .stats import (
    IntervalStats,
    client_activity,
    fit_zipf_alpha,
    interarrival_stats,
    popularity_curve,
    request_interval_stats,
)
from .summary import TraceSummary, summarize
from .synthetic import client_id, generate_trace
from .zipf import ZipfSampler

__all__ = [
    "Trace",
    "TraceRecord",
    "TraceProfile",
    "PROFILES",
    "profile",
    "DAY",
    "HOUR",
    "generate_trace",
    "client_id",
    "summarize",
    "TraceSummary",
    "ZipfSampler",
    "popularity_curve",
    "fit_zipf_alpha",
    "interarrival_stats",
    "client_activity",
    "request_interval_stats",
    "IntervalStats",
    "read_clf",
    "write_clf",
    "parse_clf_line",
    "format_clf_line",
    "ClfEntry",
]
