"""Invalidation table and site lists (Section 4 of the paper).

The accelerator maintains, per URL, the list of remote (real) client sites
that fetched the document since its previous invalidation.  Lease-based
variants (Section 6) attach an expiry to each entry; expired entries are
skipped and purged, which is what bounds site-list growth.

Storage accounting follows the paper's observation that site lists cost
"on the order of 20 to 30 bytes per request": each entry is charged
:data:`ENTRY_BYTES`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

__all__ = ["SiteEntry", "SiteList", "InvalidationTable", "KnownSitesLog", "ENTRY_BYTES"]

#: Accounting size of one site-list entry (paper: 20-30 bytes/request).
ENTRY_BYTES = 28


@dataclass
class SiteEntry:
    """One remembered client site for one document."""

    client_id: str
    proxy: str
    registered_at: float
    lease_expires: float = math.inf
    #: Set when an INVALIDATE for this entry was abandoned (max_retries
    #: exhausted); the server re-invalidates on the proxy's next contact.
    dirty: bool = False

    def live(self, now: float) -> bool:
        """True while the lease has not expired."""
        return now <= self.lease_expires


class SiteList:
    """The client sites remembered for one document."""

    def __init__(self) -> None:
        self._entries: Dict[str, SiteEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, client_id: str) -> bool:
        return client_id in self._entries

    def register(
        self,
        client_id: str,
        proxy: str,
        now: float,
        lease_expires: float = math.inf,
    ) -> SiteEntry:
        """Add or refresh a site (re-registration refreshes the lease)."""
        entry = SiteEntry(
            client_id=client_id,
            proxy=proxy,
            registered_at=now,
            lease_expires=lease_expires,
        )
        self._entries[client_id] = entry
        return entry

    def remove(self, client_id: str, registered_by: float = math.inf) -> None:
        """Forget a site (after its invalidation was delivered).

        Only an entry registered no later than ``registered_by`` goes: a
        site that registered again after that fetched a newer copy, which
        the next modification still has to invalidate.
        """
        entry = self._entries.get(client_id)
        if entry is not None and entry.registered_at <= registered_by:
            del self._entries[client_id]

    def mark_dirty(self, client_id: str) -> None:
        """Flag a site whose invalidation was abandoned (no-op if absent)."""
        entry = self._entries.get(client_id)
        if entry is not None:
            entry.dirty = True

    def live_entries(self, now: float) -> List[SiteEntry]:
        """Entries whose lease is still valid, registration order."""
        return [e for e in self._entries.values() if e.live(now)]

    def purge_expired(self, now: float) -> int:
        """Drop expired entries; returns how many were dropped."""
        dead = [cid for cid, e in self._entries.items() if not e.live(now)]
        for cid in dead:
            del self._entries[cid]
        return len(dead)

    def storage_bytes(self) -> int:
        """Accounting size of this list."""
        return len(self._entries) * ENTRY_BYTES


class InvalidationTable:
    """URL -> :class:`SiteList`, plus the statistics Table 5 reports."""

    def __init__(self) -> None:
        self._lists: Dict[str, SiteList] = {}
        #: URLs that have been modified at least once (Table 5's site-list
        #: length statistics are "taken among the site lists of files that
        #: have been modified").
        self.modified_urls: set = set()
        #: Historical max length of each modified URL's site list at the
        #: moment of its modifications.
        self._lengths_at_modification: List[int] = []
        #: Expired entries dropped over this table's lifetime (the
        #: lease-grace eviction counter the results layer surfaces).
        self.evictions = 0
        #: Round-robin rotation of known URLs for the amortized
        #: :meth:`evict_round` sweep (sites that never reconnect never
        #: touch their own list, so somebody else has to).
        self._rotation: Deque[str] = deque()
        self._in_rotation: set = set()

    def site_list(self, url: str) -> SiteList:
        """The (possibly empty, auto-created) site list for ``url``."""
        lst = self._lists.get(url)
        if lst is None:
            lst = SiteList()
            self._lists[url] = lst
            if url not in self._in_rotation:
                self._in_rotation.add(url)
                self._rotation.append(url)
        return lst

    def register(
        self,
        url: str,
        client_id: str,
        proxy: str,
        now: float,
        lease_expires: float = math.inf,
    ) -> None:
        """Remember that ``client_id`` (via ``proxy``) fetched ``url``."""
        self.site_list(url).register(client_id, proxy, now, lease_expires)

    def note_modification(self, url: str, now: float) -> List[SiteEntry]:
        """Record a modification; returns the live sites to invalidate."""
        self.modified_urls.add(url)
        lst = self.site_list(url)
        live = lst.live_entries(now)
        self._lengths_at_modification.append(len(live))
        return live

    def clear_after_invalidation(
        self, url: str, client_ids: Iterable[str], opened: float = math.inf
    ) -> None:
        """Forget sites whose invalidations were delivered.

        ``opened`` is when the delivered INVALIDATE's obligation opened;
        entries registered after it are kept (see :meth:`SiteList.remove`).
        """
        lst = self.site_list(url)
        for cid in client_ids:
            lst.remove(cid, opened)

    def purge_expired(self, now: float) -> int:
        """Purge expired leases everywhere; returns total dropped."""
        return sum(lst.purge_expired(now) for lst in self._lists.values())

    def purge_url(self, url: str, cutoff: float) -> int:
        """Lease-grace eviction for one URL's list; returns entries dropped.

        Unlike the raw ``SiteList.purge_expired``, this counts the drops
        in :attr:`evictions` and reclaims the list object itself once it
        is empty (``site_list`` re-creates on demand), so a document whose
        clients all went away stops costing table space.
        """
        lst = self._lists.get(url)
        if lst is None:
            return 0
        dropped = lst.purge_expired(cutoff)
        self.evictions += dropped
        if not len(lst):
            del self._lists[url]
            self._in_rotation.discard(url)
        return dropped

    def evict_round(self, cutoff: float, budget: int = 8) -> int:
        """Amortized lease-grace sweep: purge up to ``budget`` URL lists.

        The bugfix for unbounded site-list growth: a site that never
        reconnects never touches its own list, so lazy purge-on-touch
        alone lets its expired entries live forever.  Each call visits the
        next ``budget`` URLs in a round-robin rotation and evicts entries
        whose lease expired before ``cutoff`` (``now - lease_grace``).
        Pure memory work — no simulated time is consumed — so calling it
        from the request path cannot perturb event timing.
        """
        dropped = 0
        for _ in range(min(budget, len(self._rotation))):
            url = self._rotation.popleft()
            lst = self._lists.get(url)
            if lst is None:
                # Stale rotation entry (list already reclaimed elsewhere).
                self._in_rotation.discard(url)
                continue
            count = lst.purge_expired(cutoff)
            self.evictions += count
            dropped += count
            if len(lst):
                self._rotation.append(url)
            else:
                del self._lists[url]
                self._in_rotation.discard(url)
        return dropped

    # -- Table 5 statistics ---------------------------------------------------

    def total_entries(self, now: Optional[float] = None) -> int:
        """Entries across all site lists (live only when ``now`` given)."""
        if now is None:
            return sum(len(lst) for lst in self._lists.values())
        return sum(len(lst.live_entries(now)) for lst in self._lists.values())

    def storage_bytes(self) -> int:
        """Total site-list memory, in accounting bytes."""
        return sum(lst.storage_bytes() for lst in self._lists.values())

    def modified_list_lengths(self) -> Tuple[float, int]:
        """(average, max) site-list length among modified documents.

        Lengths are sampled at modification time, matching the paper's
        per-invalidation costs.
        """
        lengths = self._lengths_at_modification
        if not lengths:
            return (0.0, 0)
        return (sum(lengths) / len(lengths), max(lengths))

    def max_list_length(self) -> int:
        """Largest current site list across all documents."""
        if not self._lists:
            return 0
        return max(len(lst) for lst in self._lists.values())


class KnownSitesLog:
    """Persistent log of every client site the server has ever seen.

    Used for server-site crash recovery (Section 4): on recovery the
    accelerator sends an INVALIDATE carrying the server's address to every
    site in this log.  Only the *first* sight of a site costs a disk
    write; the log survives crashes.
    """

    def __init__(self) -> None:
        self._sites: Dict[str, str] = {}
        self.disk_writes = 0

    def __len__(self) -> int:
        return len(self._sites)

    def __contains__(self, client_id: str) -> bool:
        return client_id in self._sites

    def record(self, client_id: str, proxy: str) -> bool:
        """Record a site; returns True (a disk write) when first seen."""
        if client_id in self._sites:
            return False
        self._sites[client_id] = proxy
        self.disk_writes += 1
        return True

    def all_sites(self) -> List[Tuple[str, str]]:
        """(client_id, proxy) for every site ever seen."""
        return list(self._sites.items())
