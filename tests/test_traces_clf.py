"""Unit tests for the Common Log Format reader/writer."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.traces import (
    Trace,
    TraceRecord,
    format_clf_line,
    parse_clf_line,
    read_clf,
    write_clf,
)

GOOD = 'host1 - - [01/Jul/1995:00:00:01 -0400] "GET /a.html HTTP/1.0" 200 6245'


def test_parse_good_line():
    entry = parse_clf_line(GOOD)
    assert entry is not None
    assert entry.host == "host1"
    assert entry.method == "GET"
    assert entry.url == "/a.html"
    assert entry.status == 200
    assert entry.size == 6245


def test_parse_dash_size():
    entry = parse_clf_line(GOOD.replace("6245", "-"))
    assert entry.size is None


def test_parse_malformed_returns_none():
    assert parse_clf_line("garbage line") is None
    assert parse_clf_line('host - - [bad] "GET" 200') is None


def test_parse_bad_timestamp_returns_none():
    # Malformed lines must be skippable, never fatal: a bad month or an
    # out-of-range day used to raise out of parse_clf_line.
    assert parse_clf_line(GOOD.replace("01/Jul/1995", "99/Zzz/1995")) is None
    assert parse_clf_line(GOOD.replace("01/Jul/1995", "31/Feb/1995")) is None
    assert parse_clf_line(GOOD.replace(":00:00:01", ":25:00:01")) is None


def test_parse_month_case_insensitive():
    assert parse_clf_line(GOOD.replace("Jul", "JUL")).timestamp == parse_clf_line(
        GOOD
    ).timestamp
    assert parse_clf_line(GOOD.replace("Jul", "jul")) is not None
    assert parse_clf_line(GOOD.replace("Jul", "July")) is not None


def test_parse_request_without_http_version():
    entry = parse_clf_line(GOOD.replace("GET /a.html HTTP/1.0", "GET /a.html"))
    assert entry is not None
    assert entry.method == "GET"
    assert entry.url == "/a.html"


def test_parse_request_with_spaces_in_url():
    entry = parse_clf_line(
        GOOD.replace("GET /a.html HTTP/1.0", "get /my docs/a.html HTTP/1.0")
    )
    assert entry is not None
    assert entry.method == "GET"
    assert entry.url == "/my docs/a.html"


def test_parse_request_method_only_returns_none():
    assert parse_clf_line(GOOD.replace("GET /a.html HTTP/1.0", "GET")) is None
    assert parse_clf_line(GOOD.replace("GET /a.html HTTP/1.0", "")) is None


def test_parse_odd_timezone_offsets():
    # Half-hour offsets are real (e.g. the paper's SASK trace is from
    # Saskatchewan); GMT spellings appear in some archive logs.
    base = parse_clf_line(GOOD.replace("-0400", "+0000"))
    half = parse_clf_line(GOOD.replace("-0400", "+0530"))
    assert half.timestamp - base.timestamp == pytest.approx(-5.5 * 3600)
    named = parse_clf_line(GOOD.replace("-0400", "GMT"))
    assert named.timestamp == base.timestamp
    # Garbage offsets invalidate the line instead of silently mis-parsing.
    assert parse_clf_line(GOOD.replace("-0400", "0400")) is None
    assert parse_clf_line(GOOD.replace("-0400", "-04:00")) is None
    assert parse_clf_line(GOOD.replace("-0400", "+0475")) is None
    assert parse_clf_line(GOOD.replace("-0400", "elsewhere")) is None


def test_parse_combined_format_trailing_fields():
    entry = parse_clf_line(GOOD + ' "http://ref/" "Mozilla/1.0"')
    assert entry is not None
    assert entry.size == 6245


def test_timezone_offset_applied():
    east = parse_clf_line(GOOD)
    utc = parse_clf_line(GOOD.replace("-0400", "+0000"))
    assert east.timestamp - utc.timestamp == pytest.approx(4 * 3600)


def test_read_clf_filters_and_rebases():
    lines = [
        GOOD,
        'h2 - - [01/Jul/1995:00:00:11 -0400] "POST /cgi HTTP/1.0" 200 17',
        'h2 - - [01/Jul/1995:00:00:21 -0400] "GET /b.html HTTP/1.0" 404 0',
        'h2 - - [01/Jul/1995:00:00:31 -0400] "GET /b.html HTTP/1.0" 200 99',
        "malformed",
    ]
    trace = read_clf(lines, name="mini")
    assert len(trace) == 2
    assert trace.records[0].timestamp == 0.0
    assert trace.records[1].timestamp == 30.0
    assert trace.documents == {"/a.html": 6245, "/b.html": 99}


def test_read_clf_304_kept_and_largest_size_wins():
    lines = [
        GOOD,
        'h2 - - [01/Jul/1995:00:01:01 -0400] "GET /a.html HTTP/1.0" 304 0',
        'h3 - - [01/Jul/1995:00:02:01 -0400] "GET /a.html HTTP/1.0" 200 9999',
    ]
    trace = read_clf(lines)
    assert len(trace) == 3
    assert trace.documents["/a.html"] == 9999


def test_read_clf_default_size_for_bodyless():
    lines = ['h - - [01/Jul/1995:00:00:01 -0400] "GET /x HTTP/1.0" 200 -']
    trace = read_clf(lines, default_size=777)
    assert trace.documents["/x"] == 777


def test_roundtrip_write_then_read():
    trace = Trace(
        name="rt",
        records=[
            TraceRecord(timestamp=0.0, client="c1", url="/a"),
            TraceRecord(timestamp=60.0, client="c2", url="/b"),
        ],
        documents={"/a": 100, "/b": 200},
        duration=120.0,
    )
    buf = io.StringIO()
    assert write_clf(trace, buf) == 2
    back = read_clf(buf.getvalue().splitlines(), name="rt")
    assert [r.client for r in back.records] == ["c1", "c2"]
    assert [r.timestamp for r in back.records] == [0.0, 60.0]
    assert back.documents == {"/a": 100, "/b": 200}


def test_read_clf_shares_one_string_per_host_and_url():
    lines = [
        f'{host} - - [01/Jul/1995:00:00:{second:02d} -0400] "GET {url} HTTP/1.0" 200 10'
        for second, (host, url) in enumerate(
            [("h1", "/a"), ("h2", "/a"), ("h1", "/b"), ("h2", "/b"), ("h1", "/a")]
        )
    ]
    trace = read_clf(lines)
    records = trace.records
    assert len({id(r.url) for r in records}) == len({r.url for r in records}) == 2
    assert len({id(r.client) for r in records}) == len({r.client for r in records}) == 2
    keys = {url: url for url in trace.documents}
    assert all(r.url is keys[r.url] for r in records)


def test_format_clf_line_shape():
    line = format_clf_line(TraceRecord(timestamp=0.0, client="c", url="/u"), size=5)
    assert parse_clf_line(line) is not None


# -- property: write_clf -> read_clf round-trips whole traces -------------

_clients = st.sampled_from(["alpha.example.com", "beta", "10.0.0.7"])
_urls = st.sampled_from(["/", "/index.html", "/img/logo.gif", "/docs/a.txt"])


@st.composite
def _traces(draw):
    # Strictly-increasing integer timestamps starting at zero: CLF has
    # one-second resolution and read_clf rebases to the first request.
    gaps = draw(st.lists(st.integers(min_value=1, max_value=3600),
                         min_size=0, max_size=20))
    times = [0]
    for gap in gaps:
        times.append(times[-1] + gap)
    records = [
        TraceRecord(timestamp=float(t), client=draw(_clients), url=draw(_urls))
        for t in times
    ]
    documents = {
        url: draw(st.integers(min_value=1, max_value=1 << 20))
        for url in {r.url for r in records}
    }
    return Trace(name="prop", records=records, documents=documents,
                 duration=times[-1] + 1.0)


@given(_traces())
def test_clf_roundtrip_property(trace):
    buf = io.StringIO()
    assert write_clf(trace, buf) == len(trace.records)
    back = read_clf(buf.getvalue().splitlines(), name=trace.name)
    assert [(r.timestamp, r.client, r.url) for r in back.records] == [
        (r.timestamp, r.client, r.url) for r in trace.records
    ]
    assert back.documents == trace.documents
    assert back.duration == trace.records[-1].timestamp + 1.0
