"""Unit tests for the HTTP message model and wire-size accounting."""

import pytest

from repro.http import (
    CATEGORY_GET,
    CATEGORY_IMS,
    CATEGORY_INVALIDATE,
    CATEGORY_REPLY_200,
    CATEGORY_REPLY_304,
    DEFAULT_WIRE,
    NOT_MODIFIED,
    OK,
    Invalidate,
    WireCosts,
    make_get,
    make_ims,
    make_invalidate_server,
    make_invalidate_url,
    make_reply_200,
    make_reply_304,
)


def test_get_request_fields():
    req = make_get("proxy-1", "server", "/index.html", client_id="c42")
    assert req.category == CATEGORY_GET
    assert req.size == DEFAULT_WIRE.get_request
    assert req.url == "/index.html"
    assert req.client_id == "c42"
    assert not req.is_ims
    assert req.ims_timestamp is None


def test_ims_request_fields():
    req = make_ims("proxy-1", "server", "/a", client_id="c1", ims_timestamp=12.5)
    assert req.category == CATEGORY_IMS
    assert req.size == DEFAULT_WIRE.ims_request
    assert req.is_ims
    assert req.ims_timestamp == 12.5


def test_reply_200_correlates_and_sizes():
    req = make_get("p", "s", "/doc", client_id="c")
    reply = make_reply_200(req, body_bytes=5000, last_modified=99.0)
    assert reply.status == OK
    assert reply.category == CATEGORY_REPLY_200
    assert reply.src == "s" and reply.dst == "p"
    assert reply.reply_to == req.msg_id
    assert reply.size == DEFAULT_WIRE.response_header + 5000
    assert reply.body_bytes == 5000
    assert reply.last_modified == 99.0


def test_reply_304_fields():
    req = make_ims("p", "s", "/doc", client_id="c", ims_timestamp=1.0)
    reply = make_reply_304(req, last_modified=1.0)
    assert reply.status == NOT_MODIFIED
    assert reply.category == CATEGORY_REPLY_304
    assert reply.body_bytes == 0
    assert reply.size == DEFAULT_WIRE.not_modified_reply


def test_lease_expiry_carried_on_replies():
    req = make_get("p", "s", "/doc", client_id="c")
    reply = make_reply_200(req, body_bytes=10, last_modified=0.0, lease_expires=500.0)
    assert reply.lease_expires == 500.0


def test_invalidate_by_url():
    inv = make_invalidate_url("server", "proxy-1", "/doc", client_id="c9")
    assert inv.category == CATEGORY_INVALIDATE
    assert inv.url == "/doc"
    assert inv.server is None
    assert inv.client_id == "c9"
    assert inv.size == DEFAULT_WIRE.invalidate


def test_invalidate_by_server():
    inv = make_invalidate_server("server", "proxy-1", server="server")
    assert inv.url is None
    assert inv.server == "server"


def test_invalidate_requires_exactly_one_target():
    with pytest.raises(ValueError):
        Invalidate(src="s", dst="p", size=10)
    with pytest.raises(ValueError):
        Invalidate(src="s", dst="p", size=10, url="/x", server="s")


def test_wire_costs_validation():
    with pytest.raises(ValueError):
        WireCosts(get_request=-1)


def test_custom_wire_costs_flow_through():
    wire = WireCosts(get_request=111, response_header=5)
    req = make_get("p", "s", "/d", client_id="c", wire=wire)
    assert req.size == 111
    reply = make_reply_200(req, body_bytes=20, last_modified=0.0, wire=wire)
    assert reply.size == 25
