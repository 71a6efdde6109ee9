"""Adaptive lease-duration control (the Duvvuri/Shenoy/Tewari follow-up).

Section 6 fixes the lease duration by hand.  The "Adaptive Leases"
follow-up work lets the *server* pick it: long leases when state is
cheap (fewer validations), short leases when the site-list state
approaches a budget.  This controller implements the state-space policy:
it watches the invalidation table's storage and multiplicatively
shrinks/grows the lease duration to keep storage near a configured
budget.

The controller is a chain of ``period``-second simulator callbacks.  It
must be stopped when the replay ends, or its ticks keep the simulation
alive.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from ..sim import Simulator
from .httpd import ServerSite

__all__ = ["AdaptiveLeaseController"]


class AdaptiveLeaseController:
    """Keeps site-list storage near a budget by tuning the lease.

    Args:
        sim: the simulator.
        server: the server site whose ``lease_override`` we drive.
        state_budget_bytes: target ceiling for site-list storage.
        period: seconds between adjustments (finite and positive).
        initial_lease: starting lease duration (seconds).
        min_lease / max_lease: clamp bounds.
        shrink / grow: multiplicative adjustment factors.
    """

    def __init__(
        self,
        sim: Simulator,
        server: ServerSite,
        state_budget_bytes: int,
        period: float = 60.0,
        initial_lease: float = 600.0,
        min_lease: float = 10.0,
        max_lease: float = 7 * 86400.0,
        shrink: float = 0.7,
        grow: float = 1.3,
    ) -> None:
        if not 0 < period < math.inf:
            raise ValueError(f"period must be finite and positive, got {period!r}")
        if state_budget_bytes <= 0:
            raise ValueError("state budget must be positive")
        if not 0 < shrink < 1 < grow:
            raise ValueError("need shrink < 1 < grow")
        if not 0 < min_lease <= initial_lease <= max_lease:
            raise ValueError("need min_lease <= initial_lease <= max_lease")
        self.sim = sim
        self.server = server
        self.budget = state_budget_bytes
        self.period = period
        self.min_lease = min_lease
        self.max_lease = max_lease
        self.shrink = shrink
        self.grow = grow
        #: (time, lease) adjustment history for analysis.
        self.history: List[Tuple[float, float]] = []
        server.lease_override = initial_lease
        self._timer = sim.call_later(period, self._tick)

    @property
    def lease(self) -> float:
        """The lease duration currently granted."""
        return self.server.lease_override

    def _tick(self) -> None:
        self._adjust()
        self._timer = self.sim.call_later(self.period, self._tick)

    def _adjust(self) -> None:
        # Expired entries don't count against the budget — reclaim first.
        # Keep entries inside the clock-skew grace: lagging clients may
        # still honour those leases, so they must stay invalidatable.
        self.server.table.purge_expired(
            self.sim.now - self.server.accel.lease_grace
        )
        storage = self.server.table.storage_bytes()
        lease = self.server.lease_override
        if storage > self.budget:
            lease = max(self.min_lease, lease * self.shrink)
        elif storage < 0.5 * self.budget:
            lease = min(self.max_lease, lease * self.grow)
        self.server.lease_override = lease
        self.history.append((self.sim.now, lease))

    def stop(self) -> None:
        """Stop adjusting (the replay is over)."""
        self.sim.cancel(self._timer)
