"""Network message model.

A :class:`Message` is the unit the network fabric moves between nodes.  The
HTTP layer (:mod:`repro.http`) subclasses it with request/response/INVALIDATE
semantics; the fabric itself only cares about source, destination, wire size
and an accounting category.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Address", "Message"]

#: Node addresses are plain strings (e.g. ``"server"``, ``"proxy-2"``).
Address = str

_message_ids = itertools.count(1)


@dataclass
class Message:
    """A message in flight between two nodes.

    Attributes:
        src: sending node's address.
        dst: receiving node's address.
        size: wire size in bytes (headers + body), used for byte accounting
            and transmission-time computation.
        category: accounting bucket (``"get"``, ``"ims"``, ``"reply-200"``,
            ``"reply-304"``, ``"invalidate"``, ...).
        reply_to: correlation id of the request this message answers, if any.
    """

    src: Address
    dst: Address
    size: int
    category: str = "other"
    reply_to: Optional[int] = None
    msg_id: int = field(default_factory=_message_ids.__next__)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative message size {self.size!r}")

    def __repr__(self) -> str:
        return (
            f"<Message #{self.msg_id} {self.category} "
            f"{self.src}->{self.dst} {self.size}B>"
        )
