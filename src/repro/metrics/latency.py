"""Streaming latency statistics (avg / min / max / percentiles).

Tables 3-4 report average, minimum and maximum client response times; we
additionally keep a bounded reservoir so percentiles can be reported
without storing every sample of a 60k-request replay.
"""

from __future__ import annotations

import math
import random
from typing import List

__all__ = ["LatencyStats"]


class LatencyStats:
    """Online mean/min/max plus reservoir-sampled percentiles."""

    def __init__(self, reservoir_size: int = 4096, seed: int = 0) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._reservoir: List[float] = []
        self._reservoir_size = reservoir_size
        self._rng = random.Random(seed)

    def record(self, value: float) -> None:
        """Add one sample."""
        if value < 0:
            raise ValueError(f"negative latency {value!r}")
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        reservoir = self._reservoir
        if len(reservoir) < self._reservoir_size:
            reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._reservoir_size:
                reservoir[slot] = value

    @property
    def mean(self) -> float:
        """Average latency (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        """Smallest sample (0.0 when empty)."""
        return self.minimum if self.count else 0.0

    @property
    def max(self) -> float:
        """Largest sample (0.0 when empty)."""
        return self.maximum if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile from the reservoir, p in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError("p must be in [0, 100]")
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        index = min(len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1))))
        return ordered[index]

    def summary(self) -> dict:
        """JSON-compatible digest: mean/min/max plus reservoir percentiles.

        The canonical flattened form used by result serialization
        (:mod:`repro.replay.serialize`) and by metric-registry snapshots
        (:meth:`repro.obs.MetricsRegistry.to_dict`).
        """
        return {
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "count": self.count,
        }

    def state_dict(self) -> dict:
        """JSON-compatible full state (for checkpoint round-trips)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "reservoir": list(self._reservoir),
            "reservoir_size": self._reservoir_size,
        }

    @classmethod
    def from_state(cls, state: dict) -> "LatencyStats":
        """Rebuild stats saved with :meth:`state_dict`.

        Mean/min/max/percentiles are restored exactly; only the reservoir
        RNG restarts, which affects nothing unless more samples are
        recorded afterwards.
        """
        stats = cls(reservoir_size=state.get("reservoir_size", 4096))
        stats.count = int(state["count"])
        stats.total = float(state["total"])
        if stats.count:
            stats.minimum = float(state["min"])
            stats.maximum = float(state["max"])
        stats._reservoir = [float(v) for v in state.get("reservoir", [])]
        return stats

    def __repr__(self) -> str:
        return (
            f"LatencyStats(n={self.count}, mean={self.mean:.4f}, "
            f"min={self.min:.4f}, max={self.max:.4f})"
        )
