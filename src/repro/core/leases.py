"""Lease-augmented and two-tier invalidation (Section 6).

Simple invalidation's site lists "grow linearly with the number of
requests seen by the server".  Two refinements bound them:

* **Lease-augmented invalidation** — every document shipped to a client
  carries a lease.  The server promises invalidation until the lease
  expires; the client promises to revalidate afterwards.  The server only
  remembers clients with unexpired leases, so site-list size is bounded by
  the request volume of the last lease-duration window.

* **Two-tier lease-augmented invalidation** — plain GETs get a very short
  (zero) lease; only If-Modified-Since requests earn the regular lease.
  A client enters the site lists only when it asks about a document for
  the *second* time, trading a few extra If-Modified-Since requests for
  drastically smaller site lists (the paper reports SASK shrinking from
  ~20k entries to 2489, max list 1155 -> 473, for 2489 extra IMS).
"""

from __future__ import annotations

from ..server.accelerator import AcceleratorConfig
from .invalidation import InvalidationPolicy
from .protocol import Protocol

__all__ = [
    "lease_invalidation",
    "two_tier_lease",
    "adaptive_lease",
    "DEFAULT_LEASE",
]

#: Default lease duration (the paper's example: "if the lease is three
#: days, the total size of site lists is bounded by the ... last three
#: days").
DEFAULT_LEASE = 3 * 86400.0


def lease_invalidation(
    lease_duration: float = DEFAULT_LEASE,
    blocking: bool = True,
    retry_interval: float = 30.0,
) -> Protocol:
    """Lease-augmented invalidation with one lease for all requests."""
    if lease_duration <= 0:
        raise ValueError("lease_duration must be positive")
    return Protocol(
        name=f"lease-invalidation({lease_duration / 86400.0:g}d)",
        client_policy=InvalidationPolicy(),
        accelerator=AcceleratorConfig(
            invalidation=True,
            lease_get=lease_duration,
            lease_ims=lease_duration,
            grant_leases=True,
            blocking_send=blocking,
            retry_interval=retry_interval,
        ),
        strong=True,
    )


def adaptive_lease(
    state_budget_bytes: int = 64 * 1024,
    initial_lease: float = 600.0,
    blocking: bool = True,
    retry_interval: float = 30.0,
) -> Protocol:
    """Adaptive leases: the server tunes the lease to a state budget.

    The Duvvuri/Shenoy/Tewari follow-up to Section 6: instead of a fixed
    lease, the server watches its site-list storage and multiplicatively
    shrinks the lease when storage exceeds ``state_budget_bytes`` (and
    grows it when storage is comfortably below), trading validation
    traffic for bounded server state automatically.

    The replay harness attaches the controller; outside the harness,
    create a :class:`repro.server.AdaptiveLeaseController` yourself.
    """
    if state_budget_bytes <= 0:
        raise ValueError("state_budget_bytes must be positive")
    return Protocol(
        name=f"adaptive-lease({state_budget_bytes // 1024}KB)",
        client_policy=InvalidationPolicy(),
        accelerator=AcceleratorConfig(
            invalidation=True,
            lease_get=initial_lease,
            lease_ims=initial_lease,
            grant_leases=True,
            blocking_send=blocking,
            retry_interval=retry_interval,
        ),
        strong=True,
        adaptive_lease_budget=state_budget_bytes,
    )


def two_tier_lease(
    lease_duration: float = DEFAULT_LEASE,
    blocking: bool = True,
    retry_interval: float = 30.0,
) -> Protocol:
    """Two-tier lease-augmented invalidation (zero lease on GET)."""
    if lease_duration <= 0:
        raise ValueError("lease_duration must be positive")
    return Protocol(
        name=f"two-tier-lease({lease_duration / 86400.0:g}d)",
        client_policy=InvalidationPolicy(),
        accelerator=AcceleratorConfig(
            invalidation=True,
            lease_get=0.0,
            lease_ims=lease_duration,
            grant_leases=True,
            blocking_send=blocking,
            retry_interval=retry_interval,
        ),
        strong=True,
    )
