"""Wire-size model for HTTP control messages.

The paper counts *control messages* (GET requests, If-Modified-Since
requests, 304 replies, INVALIDATE messages) separately from *file
transfers* (200 replies carrying a body).  The byte sizes below are
representative HTTP/1.0-era header sizes; they only matter for the
"message bytes" rows of Tables 3–4, which are dominated by file bodies, so
the comparisons are insensitive to the exact values.  They are fixed:
every message the testbed builds is sized by these constants.
"""

from __future__ import annotations

__all__ = [
    "GET_BYTES",
    "IMS_BYTES",
    "RESPONSE_HEADER_BYTES",
    "NOT_MODIFIED_BYTES",
    "INVALIDATE_BYTES",
    "INVALIDATE_PER_CLIENT_BYTES",
    "INVALIDATE_PER_URL_BYTES",
    "PIGGYBACK_PER_URL_BYTES",
]

#: A plain ``GET`` request (request line + headers).
GET_BYTES = 300
#: A ``GET`` with an ``If-Modified-Since`` header.
IMS_BYTES = 340
#: The headers of a ``200`` reply (the body size is added).
RESPONSE_HEADER_BYTES = 250
#: A ``304 Not Modified`` reply.
NOT_MODIFIED_BYTES = 180
#: An ``INVALIDATE`` naming one document for one client, or a server
#: (the new message type, Section 4).
INVALIDATE_BYTES = 120
#: Each further client id of one document in an ``INVALIDATE`` (the
#: paper's suggested "multicast schemes").
INVALIDATE_PER_CLIENT_BYTES = 16
#: Each further document in an ``INVALIDATE`` (the sharded accelerator
#: tier's batching).
INVALIDATE_PER_URL_BYTES = 24
#: Each URL of a piggybacked invalidation list attached to a reply (PSI
#: extension).
PIGGYBACK_PER_URL_BYTES = 24
