"""Consistency protocols as (client policy, accelerator config) pairs.

A :class:`Protocol` bundles everything that differs between the paper's
three approaches; the proxy, server, network and replay machinery are
shared.  The client side decides, per cache hit, whether to *serve* the
cached copy or *validate* it with an If-Modified-Since; the server side
(an :class:`~repro.server.AcceleratorConfig`) decides whether to track
sites, what leases to grant, and how invalidations are sent.

The paper's protocols are constructed by:

* :func:`repro.core.adaptive_ttl.adaptive_ttl`
* :func:`repro.core.polling.poll_every_time`
* :func:`repro.core.invalidation.invalidation`
* :func:`repro.core.leases.lease_invalidation`
* :func:`repro.core.leases.two_tier_lease`
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..proxy.entry import CacheEntry
from ..proxy.proxy import RequestOutcome
from ..server.accelerator import AcceleratorConfig

__all__ = ["ClientPolicy", "Protocol", "SERVE", "VALIDATE"]

#: Client-policy actions.
SERVE = "serve"
VALIDATE = "validate"


class ClientPolicy:
    """Decides what the proxy does with a cached copy.

    Subclasses override :meth:`action`, the fill/validate hooks, and
    :meth:`is_hit` (the paper's protocols count "cache hits" slightly
    differently — see Section 5.2's discussion of stale hits).
    """

    #: Human-readable policy name.
    name: str = "abstract"

    def action(self, entry: CacheEntry, now: float) -> str:
        """Return :data:`SERVE` or :data:`VALIDATE` for a cached copy.

        The proxy forces VALIDATE for *questionable* entries before this
        is consulted.
        """
        raise NotImplementedError

    def on_fill(self, entry: CacheEntry, response, now: float) -> None:
        """Hook when a 200 reply creates a fresh cache entry."""

    def on_validated(self, entry: CacheEntry, response, now: float) -> None:
        """Hook when a 304 reply revalidates an existing entry."""

    def is_hit(self, outcome: RequestOutcome) -> bool:
        """Whether this request counts as a cache hit for the tables."""
        raise NotImplementedError


@dataclass(frozen=True)
class Protocol:
    """A complete consistency approach.

    Attributes:
        name: row label used in results tables.
        client_policy: proxy-side behaviour.
        accelerator: server-side behaviour.
        expired_first_cache: use Harvest's expired-first replacement (the
            adaptive-TTL interaction the paper analyses on SASK).
        strong: whether the approach guarantees strong consistency (used
            by tests asserting zero stale serves).
        adaptive_lease_budget: when set, the replay attaches an
            :class:`repro.server.AdaptiveLeaseController` with this
            site-list state budget (bytes) — the adaptive-leases
            follow-up to Section 6.
    """

    name: str
    client_policy: ClientPolicy
    accelerator: AcceleratorConfig = field(default_factory=AcceleratorConfig)
    expired_first_cache: bool = False
    strong: bool = True
    adaptive_lease_budget: int = 0

    @property
    def uses_invalidation(self) -> bool:
        """True when the server sends INVALIDATE messages."""
        return self.accelerator.invalidation

    @property
    def needs_check_in(self) -> bool:
        """True when the modifier must check in with the accelerator
        (invalidation fan-out and/or piggyback logging)."""
        return self.accelerator.invalidation or self.accelerator.piggyback
