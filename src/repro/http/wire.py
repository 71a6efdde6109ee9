"""Wire-size model for HTTP control messages.

The paper counts *control messages* (GET requests, If-Modified-Since
requests, 304 replies, INVALIDATE messages) separately from *file
transfers* (200 replies carrying a body).  The byte sizes below are
representative HTTP/1.0-era header sizes; they only matter for the
"message bytes" rows of Tables 3–4, which are dominated by file bodies, so
the comparisons are insensitive to the exact values.  Every replay uses
:data:`DEFAULT_WIRE`; the message builders in :mod:`repro.http.messages`
accept another model.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WireCosts", "DEFAULT_WIRE"]


@dataclass(frozen=True)
class WireCosts:
    """Byte sizes for each message kind on the wire.

    Attributes:
        get_request: a plain ``GET`` request (request line + headers).
        ims_request: a ``GET`` with an ``If-Modified-Since`` header.
        response_header: headers of a ``200`` reply (body size is added).
        not_modified_reply: a ``304 Not Modified`` reply.
        invalidate: an ``INVALIDATE`` message (new message type, Section 4).
        invalidate_per_client: additional bytes per extra client id when a
            single INVALIDATE is multicast to several clients behind one
            proxy (the paper's suggested "multicast schemes").
        invalidate_per_url: additional bytes per extra URL when a batched
            INVALIDATE coalesces several documents' invalidations into one
            message (the sharded accelerator tier's fan-out batching).
        piggyback_per_url: bytes per URL in a piggybacked invalidation
            list attached to a reply (PSI extension).
    """

    get_request: int = 300
    ims_request: int = 340
    response_header: int = 250
    not_modified_reply: int = 180
    invalidate: int = 120
    invalidate_per_client: int = 16
    invalidate_per_url: int = 24
    piggyback_per_url: int = 24

    def __post_init__(self) -> None:
        for name in (
            "get_request",
            "ims_request",
            "response_header",
            "not_modified_reply",
            "invalidate",
            "invalidate_per_client",
            "invalidate_per_url",
            "piggyback_per_url",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


#: Default sizes used throughout the reproduction.
DEFAULT_WIRE = WireCosts()
