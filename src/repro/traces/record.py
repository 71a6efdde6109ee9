"""Trace records and whole traces.

A trace is what the replay harness consumes: a time-ordered sequence of
(timestamp, client, url) requests plus the document catalog (URL -> size)
needed to populate the pseudo-server's file store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence

__all__ = ["TraceRecord", "Trace"]


@dataclass(frozen=True, order=True, slots=True)
class TraceRecord:
    """One HTTP request in a trace.

    Ordering is by timestamp (then client/url) so sorted traces replay in
    time order deterministically.

    Records are slotted because a replay holds every record of its trace
    for the whole run; the trace readers also share one string per
    distinct client and URL between records.
    """

    timestamp: float
    client: str
    url: str

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp {self.timestamp!r}")
        if not self.client or not self.url:
            raise ValueError("client and url must be non-empty")

    def __reduce__(self):
        # Pickle as a constructor call.  The default for a frozen slotted
        # dataclass, a state tuple set field by field, dumps and loads
        # about twice as slowly, and a spawned sweep worker gets its trace
        # pickled.
        return (TraceRecord, (self.timestamp, self.client, self.url))


@dataclass
class Trace:
    """A named request trace plus its document catalog.

    Attributes:
        name: trace identifier (e.g. ``"EPA"``).
        records: time-ordered requests.
        documents: URL -> document size in bytes.
        duration: nominal trace duration in seconds (may exceed the last
            record's timestamp).
    """

    name: str
    records: List[TraceRecord]
    documents: Dict[str, int]
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        for i in range(1, len(self.records)):
            if self.records[i].timestamp < self.records[i - 1].timestamp:
                raise ValueError("records must be time-ordered")
        missing = {r.url for r in self.records} - set(self.documents)
        if missing:
            raise ValueError(f"records reference unknown documents: {sorted(missing)[:3]}")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @property
    def clients(self) -> Sequence[str]:
        """Distinct client ids, in first-seen order."""
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.client, None)
        return list(seen)

    @property
    def urls(self) -> Sequence[str]:
        """All catalog URLs (including never-requested ones)."""
        return list(self.documents)

    def slice(self, max_requests: int) -> "Trace":
        """Prefix of the trace with at most ``max_requests`` records.

        Duration shrinks proportionally to the kept request fraction so
        modification counts stay consistent when traces are scaled down.
        """
        if max_requests >= len(self.records):
            return self
        kept = self.records[:max_requests]
        fraction = max_requests / len(self.records)
        return Trace(
            name=self.name,
            records=kept,
            documents=dict(self.documents),
            duration=max(self.duration * fraction, kept[-1].timestamp + 1.0),
        )
