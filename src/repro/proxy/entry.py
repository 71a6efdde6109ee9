"""Cache entries.

The paper simulates private per-client caches inside a shared proxy by
keying cached objects ``url@clientid``; :func:`entry_key` reproduces that.
An entry carries everything the three protocol families need: the
validator (``last_modified``), the adaptive-TTL freshness deadline
(``expires``), the lease expiry, and the *questionable* flag set by
INVALIDATE-by-server / proxy recovery (Section 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["CacheEntry", "entry_key"]


def entry_key(url: str, client_id: str) -> str:
    """Cache key for a document cached on behalf of one real client."""
    return f"{url}@{client_id}"


@dataclass(slots=True)
class CacheEntry:
    """One cached document copy (private to one real client).

    :attr:`key` is built from ``url`` and ``client_id`` at construction
    (``dataclasses.replace`` rebuilds it); neither field changes after.
    """

    url: str
    client_id: str
    size: int
    last_modified: float
    #: Adaptive-TTL freshness deadline; ``inf`` for non-TTL protocols.
    expires: float = math.inf
    #: Lease expiry granted by the server; ``inf`` when no lease protocol.
    lease_expires: float = math.inf
    #: Needs revalidation before use (proxy recovery / server recovery).
    questionable: bool = False
    last_used: float = field(default=0.0)
    #: The ``url@clientid`` cache key.
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key = entry_key(self.url, self.client_id)

    def fresh_by_ttl(self, now: float) -> bool:
        """True while the TTL deadline has not passed."""
        return now < self.expires

    def lease_valid(self, now: float) -> bool:
        """True while the server's lease promise holds."""
        return now <= self.lease_expires
