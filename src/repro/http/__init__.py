"""HTTP message model: GET, If-Modified-Since, 200/304, INVALIDATE."""

from .messages import (
    CATEGORY_GET,
    CATEGORY_IMS,
    CATEGORY_INVALIDATE,
    CATEGORY_REPLY_200,
    CATEGORY_REPLY_304,
    NOT_MODIFIED,
    OK,
    HttpRequest,
    HttpResponse,
    Invalidate,
    make_get,
    make_ims,
    make_invalidate,
    make_invalidate_server,
    make_reply_200,
    make_reply_304,
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
