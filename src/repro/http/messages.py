"""HTTP message types used by the consistency protocols.

Modelled messages:

* ``GET`` — plain document request (:func:`make_get`).
* ``GET`` + ``If-Modified-Since`` — validation request (:func:`make_ims`).
* ``200 Document follows`` — file transfer (:func:`make_reply_200`).
* ``304 Not Modified`` — validation success (:func:`make_reply_304`).
* ``INVALIDATE`` — the new message type the paper adds to HTTP
  (Section 4).  It carries either ``(url, client ids)`` pairs, the
  documents one proxy's clients must drop (:func:`make_invalidate`), or a
  Web server address, which marks every document from that server
  *questionable* after a server-site failure
  (:func:`make_invalidate_server`).  One pair for one client is the
  paper's message; the multicast and batched fan-outs group more pairs
  into one message.

Every size comes from the constants in :mod:`repro.http.wire`.

Each constructor returns a :class:`repro.net.Message` subclass whose
``category`` feeds straight into the Table 3/4 accounting rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net import Address, Message
from .wire import (
    GET_BYTES,
    IMS_BYTES,
    INVALIDATE_BYTES,
    INVALIDATE_PER_CLIENT_BYTES,
    INVALIDATE_PER_URL_BYTES,
    NOT_MODIFIED_BYTES,
    RESPONSE_HEADER_BYTES,
)

__all__ = [
    "OK",
    "NOT_MODIFIED",
    "CATEGORY_GET",
    "CATEGORY_IMS",
    "CATEGORY_REPLY_200",
    "CATEGORY_REPLY_304",
    "CATEGORY_INVALIDATE",
    "HttpRequest",
    "HttpResponse",
    "Invalidate",
    "make_get",
    "make_ims",
    "make_reply_200",
    "make_reply_304",
    "make_invalidate",
    "make_invalidate_server",
]

#: HTTP status codes the paper uses.
OK = 200
NOT_MODIFIED = 304

CATEGORY_GET = "get"
CATEGORY_IMS = "ims"
CATEGORY_REPLY_200 = "reply-200"
CATEGORY_REPLY_304 = "reply-304"
CATEGORY_INVALIDATE = "invalidate"


@dataclass(repr=False)
class HttpRequest(Message):
    """A GET or If-Modified-Since request.

    Attributes:
        url: requested document.
        client_id: the *real* client the proxy is acting for.  The paper's
            proxies forward the real clientid with each GET so the
            accelerator can register the site for invalidation.
        ims_timestamp: cached copy's Last-Modified time when this is a
            validation (If-Modified-Since) request; ``None`` for plain GETs.
        reported_hits: cache hits served locally since this proxy's last
            contact for the URL, piggybacked for hit metering (Section 7).
    """

    url: str = ""
    client_id: str = ""
    ims_timestamp: Optional[float] = None
    reported_hits: int = 0

    @property
    def is_ims(self) -> bool:
        """True when this request carries an If-Modified-Since header."""
        return self.ims_timestamp is not None


@dataclass(repr=False)
class HttpResponse(Message):
    """A 200 or 304 reply.

    Attributes:
        status: :data:`OK` or :data:`NOT_MODIFIED`.
        url: document the reply describes.
        body_bytes: body size for 200 replies (0 for 304).
        last_modified: server-side modification time of the document.
        lease_expires: absolute simulated time until which the server
            promises to invalidate (lease protocols only).
        piggyback_invalidations: URLs modified since this proxy's last
            contact, attached by piggyback-invalidation servers (the
            Krishnamurthy/Wills PSI follow-up; see
            :mod:`repro.core.piggyback`).
    """

    status: int = OK
    url: str = ""
    body_bytes: int = 0
    last_modified: float = 0.0
    lease_expires: Optional[float] = None
    piggyback_invalidations: Optional[tuple] = None


@dataclass(repr=False)
class Invalidate(Message):
    """An INVALIDATE message.

    Exactly one of ``pairs`` / ``server`` is set:

    * ``pairs`` — ``((url, (client_id, ...)), ...)``: delete each named
      document from the caches of its listed clients, all behind the
      destination proxy.  One pair with one client is the paper's form;
      one URL with several clients the multicast form; several URLs the
      sharded tier's batch.
    * ``server`` — mark every cached document from that Web server
      questionable (requires revalidation before next use); sent during
      server-site crash recovery.
    """

    pairs: Optional[tuple] = None
    server: Optional[Address] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.pairs is None) == (self.server is None):
            raise ValueError("exactly one of pairs/server must be set")


def make_get(
    src: Address,
    dst: Address,
    url: str,
    client_id: str,
) -> HttpRequest:
    """Build a plain GET request."""
    return HttpRequest(
        src=src,
        dst=dst,
        size=GET_BYTES,
        category=CATEGORY_GET,
        url=url,
        client_id=client_id,
    )


def make_ims(
    src: Address,
    dst: Address,
    url: str,
    client_id: str,
    ims_timestamp: float,
) -> HttpRequest:
    """Build an If-Modified-Since validation request."""
    return HttpRequest(
        src=src,
        dst=dst,
        size=IMS_BYTES,
        category=CATEGORY_IMS,
        url=url,
        client_id=client_id,
        ims_timestamp=ims_timestamp,
    )


def make_reply_200(
    request: HttpRequest,
    body_bytes: int,
    last_modified: float,
    lease_expires: Optional[float] = None,
) -> HttpResponse:
    """Build a ``200 Document follows`` reply to ``request``."""
    return HttpResponse(
        src=request.dst,
        dst=request.src,
        size=RESPONSE_HEADER_BYTES + body_bytes,
        category=CATEGORY_REPLY_200,
        reply_to=request.msg_id,
        status=OK,
        url=request.url,
        body_bytes=body_bytes,
        last_modified=last_modified,
        lease_expires=lease_expires,
    )


def make_reply_304(
    request: HttpRequest,
    last_modified: float,
    lease_expires: Optional[float] = None,
) -> HttpResponse:
    """Build a ``304 Not Modified`` reply to ``request``."""
    return HttpResponse(
        src=request.dst,
        dst=request.src,
        size=NOT_MODIFIED_BYTES,
        category=CATEGORY_REPLY_304,
        reply_to=request.msg_id,
        status=NOT_MODIFIED,
        url=request.url,
        body_bytes=0,
        last_modified=last_modified,
        lease_expires=lease_expires,
    )


def make_invalidate(src: Address, dst: Address, pairs) -> Invalidate:
    """Build an INVALIDATE for documents cached behind one proxy.

    ``pairs`` is an iterable of ``(url, client_ids)``.  The wire size is
    one base INVALIDATE plus ``INVALIDATE_PER_URL_BYTES`` for each further
    URL and ``INVALIDATE_PER_CLIENT_BYTES`` for each further client of a
    URL (:mod:`repro.http.wire`), so grouping saves the per-message
    framing that one message per (url, client) pays.
    """
    pairs = tuple((url, tuple(cids)) for url, cids in pairs)
    if not pairs:
        raise ValueError("INVALIDATE needs at least one pair")
    size = INVALIDATE_BYTES + INVALIDATE_PER_URL_BYTES * (len(pairs) - 1)
    for _url, cids in pairs:
        if not cids:
            raise ValueError("INVALIDATE pair needs at least one client")
        size += INVALIDATE_PER_CLIENT_BYTES * (len(cids) - 1)
    return Invalidate(
        src=src, dst=dst, size=size, category=CATEGORY_INVALIDATE, pairs=pairs,
    )


def make_invalidate_server(src: Address, dst: Address, server: Address) -> Invalidate:
    """Build an INVALIDATE carrying a server address (crash recovery)."""
    return Invalidate(
        src=src,
        dst=dst,
        size=INVALIDATE_BYTES,
        category=CATEGORY_INVALIDATE,
        server=server,
    )
