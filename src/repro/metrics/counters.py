"""Replay counters: the rows of Tables 3-4.

:class:`ReplayCounters` folds the per-request outcomes produced by the
proxies into the quantities the paper tabulates.  Message and byte totals
come from the network layer (:class:`repro.net.NetworkStats`) — they are
measured on the wire, not inferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..proxy.proxy import RequestOutcome
from .latency import LatencyStats

__all__ = ["ReplayCounters"]


@dataclass
class ReplayCounters:
    """Outcome-derived counters for one protocol replay."""

    requests: int = 0
    hits: int = 0
    misses: int = 0
    transfers: int = 0
    validations: int = 0
    served_from_cache: int = 0
    stale_serves: int = 0
    violations: int = 0  # the auditor's count, set at the end of a run
    failed: int = 0
    body_bytes_from_cache: int = 0
    body_bytes_transferred: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)
    #: How outdated stale serves were (empty for strong protocols).
    staleness: LatencyStats = field(default_factory=LatencyStats)

    def record(self, outcome: RequestOutcome) -> None:
        """Fold one request outcome in."""
        self.requests += 1
        if outcome.failed:
            self.failed += 1
            return
        if outcome.hit:
            self.hits += 1
        else:
            self.misses += 1
        if outcome.transfer:
            self.transfers += 1
            self.body_bytes_transferred += outcome.body_bytes
        if outcome.validated:
            self.validations += 1
        if outcome.served_from_cache:
            self.served_from_cache += 1
            self.body_bytes_from_cache += outcome.body_bytes
        if outcome.stale_served:
            self.stale_serves += 1
            self.staleness.record(outcome.staleness_age)
        # outcome.latency, without the property call.
        self.latency.record(outcome.finished - outcome.started)

    @property
    def hit_ratio(self) -> float:
        """Hits / completed requests."""
        completed = self.requests - self.failed
        return self.hits / completed if completed else 0.0
