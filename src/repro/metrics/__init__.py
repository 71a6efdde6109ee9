"""Measurement layer: counters, latency stats, iostat-style server load."""

from .counters import ReplayCounters
from .iostat import IostatSampler
from .latency import LatencyStats

__all__ = ["ReplayCounters", "LatencyStats", "IostatSampler"]
