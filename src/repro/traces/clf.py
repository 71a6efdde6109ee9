"""Common Log Format reader and writer.

The paper's traces come from the Internet Traffic Archive in NCSA Common
Log Format::

    host - - [01/Jul/1995:00:00:01 -0400] "GET /path HTTP/1.0" 200 6245

We cannot download the archive offline, but users who have the original
files can replay them directly: :func:`read_clf` turns a CLF stream into a
:class:`~repro.traces.record.Trace`, applying the paper's preprocessing
(only successful GETs; document sizes taken from the largest observed
response for the URL).  :func:`write_clf` round-trips synthetic traces into
the same format for interoperability with other tools.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone
from typing import Dict, Iterable, List, Optional, TextIO, Tuple, Union

from .record import Trace, TraceRecord

__all__ = ["read_clf", "write_clf", "parse_clf_line", "format_clf_line", "ClfEntry"]

_CLF_RE = re.compile(
    r'^(?P<host>\S+) \S+ \S+ \[(?P<time>[^\]]+)\] '
    # Trailing fields (combined-format referrer/user-agent) are ignored.
    r'"(?P<request>[^"]*)" (?P<status>\d{3}) (?P<size>\d+|-)(?:\s.*)?$'
)

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}


class ClfEntry:
    """One parsed CLF line."""

    __slots__ = ("host", "timestamp", "method", "url", "status", "size")

    def __init__(
        self,
        host: str,
        timestamp: float,
        method: str,
        url: str,
        status: int,
        size: Optional[int],
    ) -> None:
        self.host = host
        self.timestamp = timestamp
        self.method = method
        self.url = url
        self.status = status
        self.size = size


#: Numeric timezone offsets: sign, two-digit hours, two-digit minutes.
_OFFSET_RE = re.compile(r"^(?P<sign>[+-])(?P<hours>\d{2})(?P<minutes>\d{2})$")

#: Offset spellings some archive logs use instead of a numeric offset.
_UTC_NAMES = frozenset({"GMT", "UTC", "UT", "Z"})


def _parse_clf_offset(offset: str) -> timedelta:
    """Parse a CLF timezone offset (``-0400``, ``+0530``, ``GMT``)."""
    if offset.upper() in _UTC_NAMES:
        return timedelta(0)
    match = _OFFSET_RE.match(offset)
    if match is None:
        raise ValueError(f"bad timezone offset {offset!r}")
    sign = -1 if match.group("sign") == "-" else 1
    minutes = int(match.group("minutes"))
    if minutes >= 60:
        raise ValueError(f"bad timezone offset {offset!r}")
    return sign * timedelta(hours=int(match.group("hours")), minutes=minutes)


def _parse_clf_time(text: str) -> float:
    """Parse ``01/Jul/1995:00:00:01 -0400`` to a POSIX timestamp.

    Raises ``ValueError`` on anything it cannot interpret; month names
    are matched case-insensitively (real archive logs contain ``JUL``
    and ``jul`` spellings) and full month names are accepted by their
    first three letters.
    """
    try:
        stamp, offset = text.rsplit(" ", 1)
        day, month, rest = stamp.split("/", 2)
        year, hour, minute, second = rest.split(":")
        month_num = _MONTHS.get(month[:3].capitalize())
        if month_num is None:
            raise ValueError(f"unknown month {month!r}")
        dt = datetime(
            int(year),
            month_num,
            int(day),
            int(hour),
            int(minute),
            int(second),
            tzinfo=timezone(_parse_clf_offset(offset)),
        )
    except ValueError as exc:
        raise ValueError(f"bad CLF timestamp {text!r}") from exc
    return dt.timestamp()


def _parse_clf_request(request: str) -> Optional[Tuple[str, str]]:
    """Split the quoted request field into (method, url).

    Tolerates real-log oddities: a missing HTTP-version token
    (HTTP/0.9-style ``GET /path``) and unencoded spaces inside the URL
    (everything between the method and a trailing ``HTTP/x`` token is
    the URL).  Returns ``None`` when no method + URL can be extracted.
    """
    tokens = request.split()
    if len(tokens) < 2:
        return None
    method, rest = tokens[0], tokens[1:]
    if len(rest) > 1 and rest[-1].upper().startswith("HTTP/"):
        rest = rest[:-1]
    return method.upper(), " ".join(rest)


def parse_clf_line(line: str) -> Optional[ClfEntry]:
    """Parse one CLF line; returns ``None`` for malformed lines.

    Malformed means *anything* this function cannot interpret — bad
    timestamps and timezone offsets included.  A multi-million-line
    Internet Traffic Archive log always contains a few mangled lines;
    they must be skippable, never fatal.
    """
    match = _CLF_RE.match(line)
    if match is None:
        return None
    parsed = _parse_clf_request(match.group("request"))
    if parsed is None:
        return None
    method, url = parsed
    try:
        timestamp = _parse_clf_time(match.group("time"))
    except ValueError:
        return None
    size_text = match.group("size")
    return ClfEntry(
        host=match.group("host"),
        timestamp=timestamp,
        method=method,
        url=url,
        status=int(match.group("status")),
        size=None if size_text == "-" else int(size_text),
    )


def read_clf(
    lines: Union[TextIO, Iterable[str]],
    name: str = "clf",
    default_size: int = 1024,
) -> Trace:
    """Build a replayable trace from CLF lines.

    Preprocessing mirrors the paper: keep successful (2xx/304) GET
    requests, rebase timestamps to zero, and size each document as the
    largest body observed for its URL (``default_size`` when the log never
    reports one).
    """
    records: List[TraceRecord] = []
    documents: Dict[str, int] = {}
    # One string object per distinct host and URL, shared by every record
    # that names it (and, for URLs, by the ``documents`` key).
    strings: Dict[str, str] = {}
    base: Optional[float] = None
    last = 0.0
    for line in lines:
        entry = parse_clf_line(line)
        if entry is None or entry.method != "GET":
            continue
        if not (200 <= entry.status < 300 or entry.status == 304):
            continue
        if base is None:
            base = entry.timestamp
        at = max(0.0, entry.timestamp - base)
        last = max(last, at)
        host = strings.setdefault(entry.host, entry.host)
        url = strings.setdefault(entry.url, entry.url)
        records.append(TraceRecord(at, host, url))
        documents[url] = max(documents.get(url, 0), entry.size or 0)
    records.sort()
    return Trace(
        name=name,
        records=records,
        documents={url: size or default_size for url, size in documents.items()},
        duration=last + 1.0,
    )


def format_clf_line(record: TraceRecord, size: int, base_epoch: float = 804556800.0) -> str:
    """Render a record as a CLF line (UTC, status 200)."""
    dt = datetime.fromtimestamp(base_epoch + record.timestamp, tz=timezone.utc)
    month = [k for k, v in _MONTHS.items() if v == dt.month][0]
    stamp = (
        f"{dt.day:02d}/{month}/{dt.year}:{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}"
        " +0000"
    )
    return f'{record.client} - - [{stamp}] "GET {record.url} HTTP/1.0" 200 {size}'


def write_clf(trace: Trace, out: TextIO) -> int:
    """Write a trace in CLF; returns the number of lines written."""
    count = 0
    for record in trace.records:
        out.write(format_clf_line(record, trace.documents[record.url]) + "\n")
        count += 1
    return count
