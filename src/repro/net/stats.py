"""Message and byte accounting for the network fabric.

The paper's primary metric is "total number and bytes of messages, counting
all messages needed to service HTTP requests and to maintain cache
consistency" — this module provides exactly that, bucketed by message
category so the Table 3/4 rows (GETs, If-Modified-Since, 200s, 304s,
invalidations) fall straight out.

For chaos/fault runs the fabric additionally reconciles sends against
deliveries: every message accepted for transmission is *sent*; a sent
message that never reaches its handler is *lost* (with a recorded reason:
destination died in flight, a partition formed, or an injected link fault
ate it).  Connect-time refusals (unknown address, host already down or
partitioned at send time) remain *dropped* — the sender learns about those
synchronously, so they are not silent losses.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from .message import Message

__all__ = ["NetworkStats"]


class NetworkStats:
    """Counts delivered messages and bytes, per category and in total."""

    def __init__(self) -> None:
        self._messages: Counter = Counter()
        self._bytes: Counter = Counter()
        self._dropped: Counter = Counter()
        self._sent: Counter = Counter()
        self._lost: Counter = Counter()
        self._lost_reasons: Counter = Counter()
        self._duplicates: Counter = Counter()

    # -- recording ----------------------------------------------------------

    def record_send(self, message: Message) -> None:
        """Account one message accepted for transmission."""
        self._sent[message.category] += 1

    def record_delivery(self, message: Message) -> None:
        """Account one successfully delivered message."""
        self._messages[message.category] += 1
        self._bytes[message.category] += message.size

    def record_drop(self, message: Message) -> None:
        """Account one message refused at connect time (sender saw it)."""
        self._dropped[message.category] += 1

    def record_loss(self, message: Message, reason: str) -> None:
        """Account one *sent* message that silently vanished in flight.

        Also counted by :meth:`record_drop` (the sender still hears the
        send fail), so ``total_dropped`` keeps meaning "all failed deliveries"
        while ``messages_lost`` isolates the silent, post-send subset chaos
        reports reconcile against ``messages_sent``.
        """
        self._dropped[message.category] += 1
        self._lost[message.category] += 1
        self._lost_reasons[reason] += 1

    def record_duplicate(self, message: Message) -> None:
        """Account one extra delivery injected by a duplication fault."""
        self._duplicates[message.category] += 1

    # -- queries ------------------------------------------------------------

    @property
    def total_messages(self) -> int:
        """All delivered messages, across categories."""
        return sum(self._messages.values())

    @property
    def total_bytes(self) -> int:
        """All delivered bytes, across categories."""
        return sum(self._bytes.values())

    @property
    def total_dropped(self) -> int:
        """All messages that failed delivery (node down / partition)."""
        return sum(self._dropped.values())

    @property
    def messages_sent(self) -> int:
        """All messages accepted for transmission."""
        return sum(self._sent.values())

    @property
    def messages_lost(self) -> int:
        """Sent messages that were silently lost in flight."""
        return sum(self._lost.values())

    @property
    def duplicates_delivered(self) -> int:
        """Extra deliveries caused by duplication faults."""
        return sum(self._duplicates.values())

    def messages(self, category: str) -> int:
        """Delivered message count for one category."""
        return self._messages[category]

    def bytes(self, category: str) -> int:
        """Delivered byte count for one category."""
        return self._bytes[category]

    def lost_by_reason(self) -> Dict[str, int]:
        """Snapshot ``{loss reason: count}`` for chaos reconciliation."""
        return dict(self._lost_reasons)

    def by_category(self) -> Dict[str, int]:
        """Snapshot ``{category: delivered message count}``."""
        return dict(self._messages)

    def bytes_by_category(self) -> Dict[str, int]:
        """Snapshot ``{category: delivered bytes}``."""
        return dict(self._bytes)

    def publish(self, registry, **labels) -> None:
        """Publish per-category wire accounting into a metrics registry.

        Emits ``net_messages`` / ``net_bytes`` counters per message
        category (the Table 3/4 rows), plus loss/duplicate counters when
        a fault campaign produced any.  ``labels`` (e.g. ``protocol=``,
        ``trace=``) are attached to every series.
        """
        for category, count in sorted(self._messages.items()):
            registry.counter(
                "net_messages", category=category, **labels
            ).inc(count)
        for category, size in sorted(self._bytes.items()):
            registry.counter("net_bytes", category=category, **labels).inc(size)
        for category, count in sorted(self._lost.items()):
            if count:
                registry.counter(
                    "net_lost", category=category, **labels
                ).inc(count)
        for reason, count in sorted(self._lost_reasons.items()):
            registry.counter("net_lost_by_reason", reason=reason, **labels).inc(
                count
            )
        for category, count in sorted(self._duplicates.items()):
            if count:
                registry.counter(
                    "net_duplicates", category=category, **labels
                ).inc(count)

    def __repr__(self) -> str:
        return (
            f"NetworkStats(messages={self.total_messages}, "
            f"bytes={self.total_bytes}, sent={self.messages_sent}, "
            f"lost={self.messages_lost}, dropped={self.total_dropped})"
        )
