"""Unit tests for the HTTP message model and wire-size accounting."""

import pytest

from repro.http import (
    CATEGORY_GET,
    CATEGORY_IMS,
    CATEGORY_INVALIDATE,
    CATEGORY_REPLY_200,
    CATEGORY_REPLY_304,
    NOT_MODIFIED,
    OK,
    Invalidate,
    make_get,
    make_ims,
    make_invalidate,
    make_invalidate_server,
    make_reply_200,
    make_reply_304,
)
from repro.http.wire import (
    GET_BYTES,
    IMS_BYTES,
    INVALIDATE_BYTES,
    INVALIDATE_PER_CLIENT_BYTES,
    INVALIDATE_PER_URL_BYTES,
    NOT_MODIFIED_BYTES,
    RESPONSE_HEADER_BYTES,
)


def test_get_request_fields():
    req = make_get("proxy-1", "server", "/index.html", client_id="c42")
    assert req.category == CATEGORY_GET
    assert req.size == GET_BYTES
    assert req.url == "/index.html"
    assert req.client_id == "c42"
    assert not req.is_ims
    assert req.ims_timestamp is None


def test_ims_request_fields():
    req = make_ims("proxy-1", "server", "/a", client_id="c1", ims_timestamp=12.5)
    assert req.category == CATEGORY_IMS
    assert req.size == IMS_BYTES
    assert req.is_ims
    assert req.ims_timestamp == 12.5


def test_reply_200_correlates_and_sizes():
    req = make_get("p", "s", "/doc", client_id="c")
    reply = make_reply_200(req, body_bytes=5000, last_modified=99.0)
    assert reply.status == OK
    assert reply.category == CATEGORY_REPLY_200
    assert reply.src == "s" and reply.dst == "p"
    assert reply.reply_to == req.msg_id
    assert reply.size == RESPONSE_HEADER_BYTES + 5000
    assert reply.body_bytes == 5000
    assert reply.last_modified == 99.0


def test_reply_304_fields():
    req = make_ims("p", "s", "/doc", client_id="c", ims_timestamp=1.0)
    reply = make_reply_304(req, last_modified=1.0)
    assert reply.status == NOT_MODIFIED
    assert reply.category == CATEGORY_REPLY_304
    assert reply.body_bytes == 0
    assert reply.size == NOT_MODIFIED_BYTES


def test_lease_expiry_carried_on_replies():
    req = make_get("p", "s", "/doc", client_id="c")
    reply = make_reply_200(req, body_bytes=10, last_modified=0.0, lease_expires=500.0)
    assert reply.lease_expires == 500.0


def test_invalidate_by_url():
    inv = make_invalidate("server", "proxy-1", [("/doc", ["c9"])])
    assert inv.category == CATEGORY_INVALIDATE
    assert inv.src == "server" and inv.dst == "proxy-1"
    assert inv.pairs == (("/doc", ("c9",)),)
    assert inv.server is None


#: ``(pairs, size)`` for each fan-out grouping, its size written out as
#: that grouping's own formula.
INVALIDATE_SIZES = {
    # Per-site (the paper's message): one base INVALIDATE.
    "one-pair": ([("/a", ["c1"])], INVALIDATE_BYTES),
    # Multicast: the base plus each client after the first.
    "one-url-three-clients": (
        [("/a", ["c1", "c2", "c3"])],
        INVALIDATE_BYTES + 2 * INVALIDATE_PER_CLIENT_BYTES,
    ),
    # Batched: the base plus each URL after the first and each client
    # after the first within a URL.
    "two-urls-one-and-two-clients": (
        [("/a", ["c1"]), ("/b", ["c2", "c3"])],
        INVALIDATE_BYTES + INVALIDATE_PER_URL_BYTES + INVALIDATE_PER_CLIENT_BYTES,
    ),
}


@pytest.mark.parametrize("form", sorted(INVALIDATE_SIZES))
def test_invalidate_size(form):
    pairs, size = INVALIDATE_SIZES[form]
    inv = make_invalidate("s", "p", pairs)
    assert inv.size == size
    assert inv.pairs == tuple((url, tuple(cids)) for url, cids in pairs)


def test_invalidate_by_server():
    inv = make_invalidate_server("server", "proxy-1", server="server")
    assert inv.pairs is None
    assert inv.server == "server"
    assert inv.size == INVALIDATE_BYTES


def test_invalidate_requires_exactly_one_target():
    with pytest.raises(ValueError):
        Invalidate(src="s", dst="p", size=10)
    with pytest.raises(ValueError):
        Invalidate(src="s", dst="p", size=10, pairs=(("/x", ("c",)),), server="s")
