"""Latency models for the network fabric.

The paper's testbed is five SPARC-20s on a 100 Mb/s Ethernet; our default
:class:`LanModel` matches that (sub-millisecond propagation plus
size/bandwidth transmission time).  :class:`WanModel` adds per-pair
round-trip bases with jitter for the paper's "how would this look on the
real Internet" extrapolations.
"""

from __future__ import annotations

import random
from typing import Optional

from .message import Message

__all__ = [
    "LatencyModel",
    "LanModel",
    "WanModel",
    "FixedLatency",
]


class LatencyModel:
    """Interface: one-way delivery delay for a message."""

    def delay(self, message: Message) -> float:
        """One-way latency, in seconds, for ``message``."""
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Constant one-way delay; handy for deterministic unit tests."""

    def __init__(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative latency {seconds!r}")
        self.seconds = seconds

    def delay(self, message: Message) -> float:
        """The constant delay, whatever the message."""
        return self.seconds


class LanModel(LatencyModel):
    """Fast-Ethernet-like LAN: propagation + transmission time.

    Defaults approximate the paper's 100 Mb/s Ethernet testbed.

    Args:
        propagation: fixed per-message overhead (switching, protocol stack).
        bandwidth_bps: link bandwidth in bits/second.
        size_scale: divide message sizes by this factor when computing
            transmission time, mirroring the paper's methodology of storing
            100x-scaled documents while *accounting* full-size bytes.
    """

    def __init__(
        self,
        propagation: float = 0.0005,
        bandwidth_bps: float = 100e6,
        size_scale: float = 1.0,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if size_scale <= 0:
            raise ValueError("size_scale must be positive")
        self.propagation = propagation
        self.bandwidth_bps = bandwidth_bps
        self.size_scale = size_scale

    def delay(self, message: Message) -> float:
        """Propagation plus the (scaled) message's transmission time."""
        bits = 8.0 * message.size / self.size_scale
        return self.propagation + bits / self.bandwidth_bps


class WanModel(LatencyModel):
    """Wide-area model: base one-way delay with jitter plus transmission.

    Used for the paper's extrapolation arguments (Section 5.2: "How would
    the relative comparison of the response times change in the real
    Internet?").

    Args:
        base_delay: mean one-way propagation delay (seconds).
        jitter: exponential jitter scale added per message (seconds).
        bandwidth_bps: bottleneck bandwidth.
        rng: random stream for jitter; deterministic when provided.
        size_scale: see :class:`LanModel`.
    """

    def __init__(
        self,
        base_delay: float = 0.05,
        jitter: float = 0.02,
        bandwidth_bps: float = 1.5e6,
        rng: Optional[random.Random] = None,
        size_scale: float = 1.0,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.base_delay = base_delay
        self.jitter = jitter
        self.bandwidth_bps = bandwidth_bps
        self.rng = rng or random.Random(0)
        self.size_scale = size_scale

    def delay(self, message: Message) -> float:
        """Base delay, one exponential jitter draw and transmission time."""
        bits = 8.0 * message.size / self.size_scale
        jitter = self.rng.expovariate(1.0 / self.jitter) if self.jitter > 0 else 0.0
        return self.base_delay + jitter + bits / self.bandwidth_bps

