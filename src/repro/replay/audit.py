"""Post-run invariant audit for experiment results.

A replay produces numbers from several independent accounting layers
(wire stats, outcome counters, server counters).  The audit cross-checks
them: every finding is an internal inconsistency — a bug, not a
workload property.  ``run_experiment`` results should always audit
clean; tests and the benchmarks call :func:`audit_result` to prove it.

Checks:

* request conservation — every trace record produced exactly one
  outcome; completed = hits + misses;
* wire conservation — every GET/IMS got exactly one 200/304 reply, and
  the total-message identity holds;
* transfer agreement — outcome-counted transfers equal wire 200s;
* strong-consistency — zero violations, and zero stale serves for
  protocols that validate every serve;
* invalidation arithmetic — messages sent by the server equal wire
  INVALIDATEs (flat topologies), and site-list storage equals
  entries x entry size.
"""

from __future__ import annotations

from typing import List

from ..server.sitelist import ENTRY_BYTES
from .experiment import ExperimentResult

__all__ = ["audit_result", "AuditError"]


class AuditError(AssertionError):
    """Raised when an experiment result is internally inconsistent."""


def audit_result(
    result: ExperimentResult,
    hierarchical: bool = False,
    allow_failures: bool = False,
) -> List[str]:
    """Cross-check a result's accounting; returns the check names run.

    Args:
        result: the experiment result to audit.
        hierarchical: parents add a second hop, so wire counts exceed
            origin counts; hop-exact checks are skipped.
        allow_failures: failure-injection runs may abort requests.

    Raises:
        AuditError: on the first inconsistency found.
    """
    checks: List[str] = []

    def check(name: str, condition: bool, detail: str = "") -> None:
        if not condition:
            raise AuditError(f"audit failed: {name} {detail}".rstrip())
        checks.append(name)

    counters = result.counters

    check(
        "requests-conserved",
        counters.requests == result.total_requests,
        f"({counters.requests} outcomes vs {result.total_requests} records)",
    )
    if not allow_failures:
        check("no-failed-requests", counters.failed == 0,
              f"({counters.failed} failed)")
    completed = counters.requests - counters.failed
    check(
        "hits-plus-misses",
        counters.hits + counters.misses == completed,
        f"({counters.hits}+{counters.misses} != {completed})",
    )

    if not hierarchical:
        check(
            "one-reply-per-request",
            result.gets + result.ims == result.replies_200 + result.replies_304,
            f"({result.gets}+{result.ims} vs "
            f"{result.replies_200}+{result.replies_304})",
        )
        check(
            "transfers-match-200s",
            counters.transfers == result.replies_200,
            f"({counters.transfers} vs {result.replies_200})",
        )
        check(
            "invalidations-match-sends",
            result.invalidations == result.invalidations_sent,
            f"({result.invalidations} vs {result.invalidations_sent})",
        )
    check(
        "total-message-identity",
        result.total_messages
        == result.gets
        + result.ims
        + result.replies_200
        + result.replies_304
        + result.invalidations,
    )

    check("zero-violations", result.violations == 0, f"({result.violations})")
    check(
        "sitelist-storage-arithmetic",
        result.sitelist_storage_bytes == ENTRY_BYTES * result.sitelist_entries,
    )
    check(
        "latency-sanity",
        counters.latency.min <= counters.latency.mean <= counters.latency.max
        or counters.latency.count == 0,
    )
    check(
        "staleness-only-with-stales",
        counters.staleness.count == counters.stale_serves,
    )
    return checks
