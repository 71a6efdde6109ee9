"""Accelerator configuration (the Harvest httpd-accelerator stand-in).

The paper implements invalidation inside Harvest's HTTP accelerator, which
fronts the Web server.  In this reproduction the accelerator's behaviour is
data-driven: an :class:`AcceleratorConfig` tells the server site whether to
track client sites, what lease to attach to each request type, and whether
the invalidation send blocks the accept loop (the paper's implementation
artifact responsible for the worst-case latencies in Tables 3-4).

Protocol presets (see :mod:`repro.core`):

===================  ============  ==========  =========  =============
protocol             invalidation  lease(GET)  lease(IMS) grant_leases
===================  ============  ==========  =========  =============
adaptive TTL         off           --          --         no
polling-every-time   off           --          --         no
invalidation         on            inf         inf        no
lease invalidation   on            L           L          yes
two-tier leases      on            0           L          yes
===================  ============  ==========  =========  =============
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["AcceleratorConfig"]


@dataclass(frozen=True)
class AcceleratorConfig:
    """Server-side consistency behaviour.

    Attributes:
        invalidation: track client sites and send INVALIDATE on change.
        lease_get: lease duration attached to plain GET requests.
            ``inf`` = remember forever (simple invalidation); ``0`` = do
            not remember at all (the two-tier scheme's first tier).
        lease_ims: lease duration attached to If-Modified-Since requests.
        grant_leases: whether replies carry an explicit lease expiry the
            client must honour (lease-augmented schemes).  When False the
            client treats cached copies as valid until invalidated.
        blocking_send: when True the accelerator does not accept new
            requests until all INVALIDATEs for a modification have been
            sent (the paper's prototype behaviour); when False a separate
            process sends them (the paper's proposed fix).
        multicast: send one INVALIDATE per proxy host (covering all its
            affected clients) instead of one per client site — the
            "multicast schemes" the paper suggests for large fan-outs.
        piggyback: attach the list of URLs modified since the proxy's
            last contact to every reply (the Krishnamurthy/Wills
            piggyback-server-invalidation follow-up; weak consistency
            with much fresher caches at zero extra messages).
        piggyback_cap: at most this many URLs per piggybacked list.
        retry_interval: seconds between TCP retries for undeliverable
            invalidations (Section 4 failure handling).
        max_retries: give up on an invalidation after this many delivery
            attempts and owe it to the proxy instead (re-sent on the
            proxy's next contact).  ``None`` retries forever, the paper's
            Section 4 behaviour.
        lease_grace: safety margin, in seconds, for clock skew between the
            server and its clients.  The server still invalidates entries
            whose lease expired up to ``lease_grace`` seconds ago, and only
            purges them once the grace has also elapsed — so a client whose
            clock runs behind by at most this much never serves a stale
            copy it believes is still leased.
    """

    invalidation: bool = False
    lease_get: float = math.inf
    lease_ims: float = math.inf
    grant_leases: bool = False
    blocking_send: bool = True
    multicast: bool = False
    piggyback: bool = False
    piggyback_cap: int = 100
    retry_interval: float = 30.0
    max_retries: Optional[int] = None
    lease_grace: float = 0.0

    def __post_init__(self) -> None:
        if self.lease_get < 0 or self.lease_ims < 0:
            raise ValueError("lease durations must be non-negative")
        if self.retry_interval <= 0:
            raise ValueError("retry_interval must be positive")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.lease_grace < 0:
            raise ValueError("lease_grace must be non-negative")

    def lease_for(self, is_ims: bool) -> float:
        """Lease duration to attach to a request of the given kind."""
        return self.lease_ims if is_ims else self.lease_get
