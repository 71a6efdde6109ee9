"""Server-driven invalidation — the paper's recommended approach.

The accelerator remembers every client site that fetched a document and
sends INVALIDATE messages to all of them when it changes; a write is
complete when the invalidations have reached the relevant clients.  The
proxy deletes invalidated copies (freeing cache space for fresh
documents), so a valid cached copy can be served without contacting the
server at all.

``blocking`` reproduces the prototype inefficiency the paper measured:
the accelerator "does not accept new requests until it finishes sending
all invalidation messages", producing the large worst-case latencies in
Tables 3-4.  ``blocking=False`` is the paper's proposed fix (a separate
sending process), benchmarked as Ablation A.
"""

from __future__ import annotations

from typing import Optional

from ..proxy.entry import CacheEntry
from ..server.accelerator import AcceleratorConfig
from .protocol import SERVE, VALIDATE, ClientPolicy, Protocol

__all__ = ["InvalidationPolicy", "invalidation"]


class InvalidationPolicy(ClientPolicy):
    """Client policy: a cached copy is valid until invalidated.

    With leases (Section 6) a copy is only trusted while its lease holds;
    after expiry the client keeps its promise to revalidate.  Plain
    invalidation is the ``lease = infinity`` special case.
    """

    name = "invalidation"

    def action(self, entry: CacheEntry, now: float) -> str:
        return SERVE if entry.lease_valid(now) else VALIDATE

    def is_hit(self, outcome) -> bool:
        return outcome.served_from_cache


def invalidation(
    blocking: bool = True,
    multicast: bool = False,
    retry_interval: float = 30.0,
    max_retries: Optional[int] = None,
) -> Protocol:
    """The paper's simple invalidation protocol.

    Args:
        blocking: reproduce the prototype's blocking send (default, as
            measured in Tables 3-5); False decouples sending.
        multicast: one INVALIDATE per proxy host instead of per client
            site (the paper's suggested mitigation for long fan-outs).
        retry_interval: TCP retry period for failure handling.
        max_retries: give up on an INVALIDATE after this many retries
            (the server owes it to the proxy and re-sends it on the
            proxy's next contact); ``None`` retries forever, the paper's
            behaviour.
    """
    name = "invalidation"
    if multicast:
        name += "-multicast"
    return Protocol(
        name=name,
        client_policy=InvalidationPolicy(),
        accelerator=AcceleratorConfig(
            invalidation=True,
            blocking_send=blocking,
            multicast=multicast,
            retry_interval=retry_interval,
            max_retries=max_retries,
        ),
        strong=True,
    )
