"""Structured event spans: the request-lifecycle trace.

A *span* is one timed thing that happened during a replay — a client
request travelling client → proxy (→ accelerator), an INVALIDATE fan-out
travelling accelerator → proxies, a whole run.  Spans are written as one
JSON object per line (JSONL) so timelines can be grepped, streamed and
diffed without loading a run into memory.

Schema (one line per span)::

    {"kind": "request", "name": "/doc/3", "start": 12.01, "end": 12.13,
     "site": "proxy-1", "client": "c42", "action": "hit", ...}

``kind`` and ``name`` plus ``start``/``end`` (simulated seconds) are
always present; everything else is a free-form attribute.  The kinds the
replay emits are:

* ``request`` — one client request; attributes: ``site``, ``client``,
  ``protocol``, ``phase``, ``action`` (``hit`` / ``miss`` / ``validate``
  / ``failed``), ``status``, ``bytes`` and ``stale`` (only when true).
* ``invalidation`` — one accelerator fan-out; attributes: ``protocol``,
  ``sites`` (entries notified), ``phase``.
* ``run`` — the whole replay, emitted once at the end; attributes:
  ``protocol``, ``trace``, ``requests``, ``messages``.

Sampling: ``SpanSink(..., sample=0.25)`` keeps every fourth span of each
kind, deterministically (a per-kind stride counter, no RNG), so two runs
of the same experiment emit identical files.  All spans are *counted*
whether or not they are written.
"""

from __future__ import annotations

import json
import math
from collections import Counter as _Counter
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterable, Iterator, List, Optional, Union

__all__ = [
    "Span",
    "SpanSink",
    "read_spans",
    "filter_spans",
    "format_timeline",
]


@dataclass
class Span:
    """One timed event loaded back from a span file."""

    kind: str
    name: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in simulated seconds."""
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """Flatten back into the JSONL object form."""
        return {
            "kind": self.kind,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            **self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Build a span from one parsed JSONL object."""
        attrs = {
            k: v
            for k, v in data.items()
            if k not in ("kind", "name", "start", "end")
        }
        return cls(
            kind=data["kind"],
            name=data["name"],
            start=float(data["start"]),
            end=float(data["end"]),
            attrs=attrs,
        )


class SpanSink:
    """Writes spans as JSONL, with deterministic per-kind sampling.

    Args:
        out: a path (opened and owned by the sink) or an open text
            file-like object (borrowed; not closed by :meth:`close`).
        sample: fraction of spans to keep per kind, in (0, 1].  Sampling
            is a deterministic stride — span ``i`` of a kind is written
            when ``ceil((i+1)*sample) > ceil(i*sample)`` — so repeated
            runs produce identical files and the first span of every
            kind is always kept (a rare kind never vanishes entirely).
    """

    def __init__(self, out: Union[str, IO[str]], sample: float = 1.0) -> None:
        if not 0.0 < sample <= 1.0:
            raise ValueError("sample must be in (0, 1]")
        self.sample = sample
        self.counts: _Counter = _Counter()
        self.written: _Counter = _Counter()
        if isinstance(out, str):
            self._fh: Optional[IO[str]] = open(out, "w")
            self._owns = True
        else:
            self._fh = out
            self._owns = False

    def emit(
        self, kind: str, name: str, start: float, end: float, **attrs: Any
    ) -> bool:
        """Record one span; returns True when it was actually written."""
        seen = self.counts[kind]
        self.counts[kind] = seen + 1
        keep = math.ceil((seen + 1) * self.sample) > math.ceil(
            seen * self.sample
        )
        if not keep or self._fh is None:
            return False
        record: Dict[str, Any] = {
            "kind": kind,
            "name": name,
            "start": round(start, 6),
            "end": round(end, 6),
        }
        record.update(attrs)
        self._fh.write(json.dumps(record) + "\n")
        self.written[kind] += 1
        return True

    @property
    def total_seen(self) -> int:
        """Spans offered to the sink (written or sampled away)."""
        return sum(self.counts.values())

    @property
    def total_written(self) -> int:
        """Spans actually written to the file."""
        return sum(self.written.values())

    def close(self) -> None:
        """Flush and, when the sink opened the file itself, close it."""
        if self._fh is None:
            return
        self._fh.flush()
        if self._owns:
            self._fh.close()
        self._fh = None


def read_spans(source: Union[str, IO[str]]) -> Iterator[Span]:
    """Stream spans back from a JSONL file (path or open handle)."""
    if isinstance(source, str):
        with open(source, "r") as fh:
            yield from read_spans(fh)
        return
    for line in source:
        line = line.strip()
        if line:
            yield Span.from_dict(json.loads(line))


def filter_spans(
    spans: Iterable[Span],
    kind: Optional[str] = None,
    contains: Optional[str] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
    min_duration: Optional[float] = None,
) -> List[Span]:
    """Filter a span stream on kind / substring / time window.

    ``contains`` matches the span name or any ``key=value`` attribute
    rendering (so ``contains="action=miss"`` and ``contains="/doc/3"``
    both work); ``since``/``until`` select spans whose interval overlaps
    the window; ``min_duration`` keeps only spans at least that long
    (seconds).
    """
    out: List[Span] = []
    for span in spans:
        if kind is not None and span.kind != kind:
            continue
        if contains is not None:
            haystack = " ".join(
                [span.name]
                + [f"{k}={span.attrs[k]}" for k in sorted(span.attrs)]
            )
            if contains not in haystack:
                continue
        if since is not None and span.end < since:
            continue
        if until is not None and span.start > until:
            continue
        if min_duration is not None and span.duration < min_duration:
            continue
        out.append(span)
    return out


def format_timeline(spans: Iterable[Span], limit: int = 50) -> str:
    """Render spans as a start-ordered text timeline.

    One line per span: start time, duration, kind, name and the most
    interesting attributes.  ``limit`` caps the output (0 = unlimited);
    a trailing line reports how many spans were elided.
    """
    ordered = sorted(spans, key=lambda s: (s.start, s.end, s.kind, s.name))
    shown = ordered if limit <= 0 else ordered[:limit]
    lines: List[str] = []
    for span in shown:
        attrs = " ".join(
            f"{k}={span.attrs[k]}" for k in sorted(span.attrs)
        )
        lines.append(
            f"{span.start:12.4f}s  +{span.duration:9.4f}s  "
            f"{span.kind:12s} {span.name}  {attrs}".rstrip()
        )
    elided = len(ordered) - len(shown)
    if elided > 0:
        lines.append(f"... {elided} more span(s); raise --limit to see them")
    if not lines:
        lines.append("(no spans matched)")
    return "\n".join(lines)
