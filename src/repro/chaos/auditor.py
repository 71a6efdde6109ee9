"""The strong-consistency auditor.

Rides along every replay (as every proxy's ``observer``), whose one
violation count it keeps.  The proxy calls it only for an *unvalidated*
cached serve of outdated content, the one event that can break strong
consistency, and it classifies each such serve:

* For a **weak** protocol (adaptive TTL, piggyback), staleness is the
  accepted trade-off — recorded, never a violation.
* For a **strong** protocol, staleness is allowed only while someone
  still *owes* the proxy an invalidation.  The auditor asks the
  accelerator sites themselves — the one server, or each shard of a
  cluster — so an obligation is open when any site holds it:

  - ``write-pending`` — the modification's INVALIDATE is registered but
    not yet delivered (the paper's definition: the write has not
    completed, so a concurrent read may legally return the old version).
    Behind parent caches the auditor walks the upstream chain: each
    parent may still owe the hop below it, the origin the top hop (this
    holds for ``recovery-pending`` too);
  - ``origin-down`` — an accelerator site is crashed (the one server, or
    any shard of a cluster), so the write itself cannot complete until
    recovery;
  - ``recovery-pending`` — a post-crash INVALIDATE-by-server for this
    proxy is still in flight;
  - ``detection-pending`` — browser-based detection only: the author has
    not yet viewed the modified page, so the accelerator cannot know.

  A stale serve with **no** open obligation (a copy served after its
  own INVALIDATE was delivered, say) is a *silent-staleness* violation:
  the protocol broke its guarantee under the fault schedule in play.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List

__all__ = ["ConsistencyAuditor", "ViolationRecord"]

#: Cap on per-violation detail records kept (counts are always exact).
MAX_VIOLATION_DETAILS = 100


@dataclass(frozen=True)
class ViolationRecord:
    """One observed strong-consistency violation."""

    time: float
    kind: str
    url: str
    client_id: str
    proxy: str
    staleness_age: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form for campaign reports."""
        return {
            "time": self.time,
            "kind": self.kind,
            "url": self.url,
            "client_id": self.client_id,
            "proxy": self.proxy,
            "staleness_age": self.staleness_age,
        }


class ConsistencyAuditor:
    """Classifies every stale serve while a replay runs.

    Args:
        sites: the accelerator sites (:class:`repro.server.ServerSite`:
            the one server, or every shard of a cluster) whose
            obligations ledgers distinguish in-flight windows from
            violations.
        strong: whether the protocol under test claims strong consistency.
        detection: the experiment's modification-detection mode
            (``"notify"`` or ``"browser"``); browser mode has one extra
            allowed window (the author has not viewed the page yet).
        parents: the :class:`repro.hierarchy.ParentProxy` caches between
            the proxies and the sites, if any.
    """

    def __init__(
        self, sites, strong: bool, detection: str = "notify", parents=()
    ) -> None:
        self.sites = list(sites)
        self.strong = strong
        self.detection = detection
        self._parents = {p.address: p for p in parents}
        self.allowed: Counter = Counter()
        self.violations: List[ViolationRecord] = []
        self.violation_count = 0

    # -- the proxy observer hook -------------------------------------------

    def on_stale_serve(self, proxy, entry, outcome) -> None:
        """Called by the proxy after each unvalidated stale serve."""
        if not self.strong:
            self.allowed["weak-protocol"] += 1
            return
        reason = self._excuse(proxy, entry)
        if reason is not None:
            self.allowed[reason] += 1
        else:
            self._record(proxy, entry, outcome, "silent-staleness")

    def _excuse(self, proxy, entry) -> str:
        """The open obligation covering this stale serve, or ``None``."""
        url = entry.url
        client_id = entry.client_id
        hop = proxy.address
        parent = self._parents.get(proxy.server_address)
        while parent is not None:
            if (url, client_id) in parent.owed:
                return "write-pending"
            if (None, hop) in parent.owed:
                return "recovery-pending"
            client_id = hop = parent.address
            parent = self._parents.get(parent.server_address)
        sites = self.sites
        if any(s.write_pending(url, client_id) for s in sites):
            return "write-pending"
        if not all(s.up for s in sites):
            return "origin-down"
        if any(s.recovery_pending(hop) for s in sites):
            return "recovery-pending"
        if self.detection == "browser" and any(
            s.change_pending_detection(entry.url) for s in sites
        ):
            return "detection-pending"
        return None

    def _record(self, proxy, entry, outcome, kind: str) -> None:
        self.violation_count += 1
        if len(self.violations) < MAX_VIOLATION_DETAILS:
            self.violations.append(
                ViolationRecord(
                    time=proxy.sim.now,
                    kind=kind,
                    url=entry.url,
                    client_id=entry.client_id,
                    proxy=proxy.address,
                    staleness_age=outcome.staleness_age,
                )
            )

    # -- reporting ----------------------------------------------------------

    def report(self, counters) -> Dict[str, Any]:
        """JSON-compatible verdict for this replay.

        ``counters`` is the run's :class:`repro.metrics.ReplayCounters`,
        which already counts the cached and the stale serves.
        """
        return {
            "strong": self.strong,
            "serves": counters.served_from_cache,
            "stale_serves": counters.stale_serves,
            "allowed_staleness": dict(self.allowed),
            "violation_count": self.violation_count,
            "violations": [v.to_dict() for v in self.violations],
        }
