"""HTTP message types used by the consistency protocols.

Modelled messages:

* ``GET`` — plain document request (:func:`make_get`).
* ``GET`` + ``If-Modified-Since`` — validation request (:func:`make_ims`).
* ``200 Document follows`` — file transfer (:func:`make_reply_200`).
* ``304 Not Modified`` — validation success (:func:`make_reply_304`).
* ``INVALIDATE`` — the new message type the paper adds to HTTP
  (Section 4).  It carries either a URL (invalidate one document) or a Web
  server address (mark every document from that server *questionable*;
  used after a server-site failure).

Each constructor returns a :class:`repro.net.Message` subclass whose
``category`` feeds straight into the Table 3/4 accounting rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net import Address, Message
from .wire import DEFAULT_WIRE, WireCosts

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
    "make_invalidate_url",
    "make_invalidate_multi",
    "make_invalidate_batch",
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

    Exactly one of ``url`` / ``server`` / ``pairs`` is set:

    * ``url`` — delete the named document from the cache of ``client_id``
      (or every client in ``client_ids`` for the multicast form).
    * ``server`` — mark every cached document from that Web server
      questionable (requires revalidation before next use); sent during
      server-site crash recovery.
    * ``pairs`` — batched form: ``((url, client_ids), ...)`` coalescing
      several documents' invalidations for one proxy into a single
      message (the sharded accelerator tier's fan-out batching).
    """

    url: Optional[str] = None
    server: Optional[Address] = None
    client_id: str = ""
    #: Multicast form: all real clients behind the destination proxy that
    #: should drop the URL (``None`` for the single-client form).
    client_ids: Optional[tuple] = None
    #: Batched form: ``((url, (client_id, ...)), ...)`` — every entry the
    #: destination proxy should drop, across several documents.
    pairs: Optional[tuple] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        forms = sum(x is not None for x in (self.url, self.server, self.pairs))
        if forms != 1:
            raise ValueError("exactly one of url/server/pairs must be set")

    @property
    def target_clients(self) -> tuple:
        """The client ids this message invalidates (1 or many).

        For the batched (``pairs``) form the targets are per-URL; use
        :attr:`pairs` directly instead.
        """
        if self.client_ids is not None:
            return self.client_ids
        return (self.client_id,) if self.client_id else ()


def make_get(
    src: Address,
    dst: Address,
    url: str,
    client_id: str,
    wire: WireCosts = DEFAULT_WIRE,
) -> HttpRequest:
    """Build a plain GET request."""
    return HttpRequest(
        src=src,
        dst=dst,
        size=wire.get_request,
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
    wire: WireCosts = DEFAULT_WIRE,
) -> HttpRequest:
    """Build an If-Modified-Since validation request."""
    return HttpRequest(
        src=src,
        dst=dst,
        size=wire.ims_request,
        category=CATEGORY_IMS,
        url=url,
        client_id=client_id,
        ims_timestamp=ims_timestamp,
    )


def make_reply_200(
    request: HttpRequest,
    body_bytes: int,
    last_modified: float,
    wire: WireCosts = DEFAULT_WIRE,
    lease_expires: Optional[float] = None,
) -> HttpResponse:
    """Build a ``200 Document follows`` reply to ``request``."""
    return HttpResponse(
        src=request.dst,
        dst=request.src,
        size=wire.response_header + body_bytes,
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
    wire: WireCosts = DEFAULT_WIRE,
    lease_expires: Optional[float] = None,
) -> HttpResponse:
    """Build a ``304 Not Modified`` reply to ``request``."""
    return HttpResponse(
        src=request.dst,
        dst=request.src,
        size=wire.not_modified_reply,
        category=CATEGORY_REPLY_304,
        reply_to=request.msg_id,
        status=NOT_MODIFIED,
        url=request.url,
        body_bytes=0,
        last_modified=last_modified,
        lease_expires=lease_expires,
    )


def make_invalidate_url(
    src: Address,
    dst: Address,
    url: str,
    client_id: str,
    wire: WireCosts = DEFAULT_WIRE,
) -> Invalidate:
    """Build an INVALIDATE carrying a URL (normal modification path)."""
    return Invalidate(
        src=src,
        dst=dst,
        size=wire.invalidate,
        category=CATEGORY_INVALIDATE,
        url=url,
        client_id=client_id,
    )


def make_invalidate_multi(
    src: Address,
    dst: Address,
    url: str,
    client_ids,
    wire: WireCosts = DEFAULT_WIRE,
) -> Invalidate:
    """Build one INVALIDATE covering several clients behind one proxy.

    The multicast form the paper suggests for large fan-outs: one
    message per proxy host instead of one per client site.
    """
    client_ids = tuple(client_ids)
    if not client_ids:
        raise ValueError("multicast INVALIDATE needs at least one client")
    extra = wire.invalidate_per_client * (len(client_ids) - 1)
    return Invalidate(
        src=src,
        dst=dst,
        size=wire.invalidate + extra,
        category=CATEGORY_INVALIDATE,
        url=url,
        client_ids=client_ids,
    )


def make_invalidate_batch(
    src: Address,
    dst: Address,
    pairs,
    wire: WireCosts = DEFAULT_WIRE,
) -> Invalidate:
    """Build one INVALIDATE coalescing several documents for one proxy.

    ``pairs`` is an iterable of ``(url, client_ids)``.  The wire size is
    one base INVALIDATE plus ``invalidate_per_url`` for each extra URL
    and ``invalidate_per_client`` for each extra client id within a URL,
    so batching saves the per-message framing the unbatched fan-out pays.
    """
    normalized = tuple((url, tuple(cids)) for url, cids in pairs)
    if not normalized:
        raise ValueError("batched INVALIDATE needs at least one pair")
    size = wire.invalidate + wire.invalidate_per_url * (len(normalized) - 1)
    for _url, cids in normalized:
        if not cids:
            raise ValueError("batched INVALIDATE pair needs at least one client")
        size += wire.invalidate_per_client * (len(cids) - 1)
    return Invalidate(
        src=src,
        dst=dst,
        size=size,
        category=CATEGORY_INVALIDATE,
        pairs=normalized,
    )


def make_invalidate_server(
    src: Address,
    dst: Address,
    server: Address,
    wire: WireCosts = DEFAULT_WIRE,
) -> Invalidate:
    """Build an INVALIDATE carrying a server address (crash recovery)."""
    return Invalidate(
        src=src,
        dst=dst,
        size=wire.invalidate,
        category=CATEGORY_INVALIDATE,
        server=server,
    )
