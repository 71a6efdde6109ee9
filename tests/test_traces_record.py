"""Unit tests for TraceRecord and Trace."""

import copy
import dataclasses
import pickle

import pytest

from repro.traces import Trace, TraceRecord


def rec(t, client="c1", url="/a"):
    return TraceRecord(timestamp=t, client=client, url=url)


def test_record_validation():
    with pytest.raises(ValueError):
        TraceRecord(timestamp=-1.0, client="c", url="/a")
    with pytest.raises(ValueError):
        TraceRecord(timestamp=0.0, client="", url="/a")
    with pytest.raises(ValueError):
        TraceRecord(timestamp=0.0, client="c", url="")


def test_records_order_by_timestamp():
    assert rec(1.0) < rec(2.0)
    assert sorted([rec(3.0), rec(1.0), rec(2.0)])[0].timestamp == 1.0


def test_record_has_no_instance_dict():
    # A replay holds every record of its trace; a per-record __dict__
    # would double the record's size.
    assert not hasattr(rec(1.0), "__dict__")


def test_record_is_frozen():
    record = rec(1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.url = "/b"
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.timestamp = 2.0


def test_record_orders_and_hashes_as_its_field_tuple():
    records = [rec(2.0, "a", "/b"), rec(1.0, "b", "/a"), rec(2.0, "a", "/a"), rec(1.0, "a", "/z")]
    as_tuples = [(r.timestamp, r.client, r.url) for r in records]
    assert [(r.timestamp, r.client, r.url) for r in sorted(records)] == sorted(as_tuples)
    assert hash(rec(1.0, "c", "/a")) == hash((1.0, "c", "/a"))
    assert rec(1.0) == rec(1.0) and len({rec(1.0), rec(1.0), rec(2.0)}) == 2


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_record_pickles_to_an_equal_record(protocol):
    record = rec(12.5, "client-00003", "/doc/00007.html")
    back = pickle.loads(pickle.dumps(record, protocol=protocol))
    assert back == record and type(back) is type(record)


def test_record_copies_to_an_equal_record():
    record = rec(12.5, "client-00003", "/doc/00007.html")
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record


def test_trace_requires_time_order():
    with pytest.raises(ValueError):
        Trace(
            name="t",
            records=[rec(2.0), rec(1.0)],
            documents={"/a": 100},
            duration=10.0,
        )


def test_trace_requires_known_documents():
    with pytest.raises(ValueError):
        Trace(name="t", records=[rec(1.0, url="/missing")], documents={}, duration=5.0)


def test_trace_requires_positive_duration():
    with pytest.raises(ValueError):
        Trace(name="t", records=[], documents={}, duration=0.0)


def test_trace_iteration_and_len():
    trace = Trace(
        name="t",
        records=[rec(1.0), rec(2.0)],
        documents={"/a": 100},
        duration=10.0,
    )
    assert len(trace) == 2
    assert [r.timestamp for r in trace] == [1.0, 2.0]


def test_trace_clients_first_seen_order():
    trace = Trace(
        name="t",
        records=[rec(1.0, client="b"), rec(2.0, client="a"), rec(3.0, client="b")],
        documents={"/a": 100},
        duration=10.0,
    )
    assert trace.clients == ["b", "a"]


def test_trace_urls_include_unrequested_documents():
    trace = Trace(
        name="t",
        records=[rec(1.0, url="/a")],
        documents={"/a": 100, "/never": 5},
        duration=10.0,
    )
    assert set(trace.urls) == {"/a", "/never"}


def test_slice_shrinks_duration_proportionally():
    records = [rec(float(i)) for i in range(10)]
    trace = Trace(name="t", records=records, documents={"/a": 1}, duration=100.0)
    small = trace.slice(5)
    assert len(small) == 5
    assert small.duration == pytest.approx(50.0)


def test_slice_noop_when_large_enough():
    trace = Trace(name="t", records=[rec(1.0)], documents={"/a": 1}, duration=10.0)
    assert trace.slice(100) is trace
