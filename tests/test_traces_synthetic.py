"""Tests for synthetic trace generation and calibration."""

import hashlib

import pytest

from repro.sim import RngRegistry
from repro.traces import (
    PROFILES,
    generate_trace,
    profile,
    summarize,
)


@pytest.fixture(scope="module")
def epa_small():
    prof = PROFILES["EPA"].scaled(0.05)
    return prof, generate_trace(prof, RngRegistry(seed=7))


def test_profile_lookup_case_insensitive():
    assert profile("epa").name == "EPA"
    assert profile("ClarkNet").name == "ClarkNet"
    with pytest.raises(KeyError):
        profile("nope")


def test_all_five_paper_profiles_present():
    assert set(PROFILES) == {"EPA", "SDSC", "ClarkNet", "NASA", "SASK"}


def test_derived_file_counts_match_design():
    # DESIGN.md §3: F = mods * L / T recovered from Tables 3-4 headers.
    assert PROFILES["EPA"].num_files == 3600
    assert PROFILES["SASK"].num_files == 2009
    assert PROFILES["ClarkNet"].num_files == 4800
    assert PROFILES["NASA"].num_files == 1008
    assert PROFILES["SDSC"].num_files == 1430


def test_generated_trace_counts(epa_small):
    prof, trace = epa_small
    assert len(trace) == prof.total_requests
    assert len(trace.documents) == prof.num_files


def test_generated_trace_time_ordered_within_duration(epa_small):
    prof, trace = epa_small
    times = [r.timestamp for r in trace.records]
    assert times == sorted(times)
    assert 0 <= times[0] and times[-1] <= prof.duration


def test_generated_trace_deterministic():
    prof = PROFILES["SDSC"].scaled(0.03)
    a = generate_trace(prof, RngRegistry(seed=5))
    b = generate_trace(prof, RngRegistry(seed=5))
    assert a.records == b.records
    assert a.documents == b.documents


def trace_digest(trace):
    """SHA-256 over every record's ``(repr(timestamp), client, url)`` and
    the ``documents`` dict in its insertion order."""
    h = hashlib.sha256()
    for r in trace.records:
        h.update(f"{r.timestamp!r} {r.client} {r.url}\n".encode())
    for url, size in trace.documents.items():
        h.update(f"{url} {size}\n".encode())
    return h.hexdigest()


#: Generated traces pinned by content: (profile, scale, seed, records, digest).
#: A change to the generator that moves any timestamp, client, URL, size or
#: catalog order moves the digest, even where no replay digest would.
TRACE_PINS = [
    ("SDSC", 0.05, 11, 1272, "26c71815d809e46f805f43e0df627e972f80ba0021cddacddbdd57001e67e84d"),
    ("EPA", 0.05, 701, 2033, "ec1395c2d50fc074bc6362ade20b285a556b6794cae1a15b600497241b235ec6"),
    ("SASK", 0.05, 907, 2574, "347ec77cd1eebc005a3ff339c3f4c8e9c008bd02c093ab6043c1d4cb9e84f23f"),
]


@pytest.mark.parametrize("name,scale,seed,count,digest", TRACE_PINS)
def test_generated_trace_matches_pin(name, scale, seed, count, digest):
    trace = generate_trace(PROFILES[name].scaled(scale), RngRegistry(seed=seed))
    assert len(trace.records) == count
    assert trace_digest(trace) == digest


def test_generated_trace_shares_one_string_per_client_and_url(epa_small):
    _prof, trace = epa_small
    records = trace.records
    assert len({id(r.url) for r in records}) == len({r.url for r in records})
    assert len({id(r.client) for r in records}) == len({r.client for r in records})
    keys = {url: url for url in trace.documents}
    assert all(r.url is keys[r.url] for r in records)


def test_generated_trace_seed_sensitivity():
    prof = PROFILES["SDSC"].scaled(0.03)
    a = generate_trace(prof, RngRegistry(seed=5))
    b = generate_trace(prof, RngRegistry(seed=6))
    assert a.records != b.records


def test_mean_file_size_matches_profile(epa_small):
    prof, trace = epa_small
    mean = sum(trace.documents.values()) / len(trace.documents)
    assert mean == pytest.approx(prof.mean_file_size, rel=0.05)


def test_revisits_present(epa_small):
    _prof, trace = epa_small
    pairs = set()
    revisits = 0
    for record in trace.records:
        key = (record.client, record.url)
        if key in pairs:
            revisits += 1
        pairs.add(key)
    # Temporal locality must exist (it drives proxy cache hits).
    assert revisits > 0.1 * len(trace.records)


def test_full_scale_calibration_epa():
    """Full EPA generation matches Table 2 popularity within 15%."""
    prof = PROFILES["EPA"]
    summary = summarize(generate_trace(prof, RngRegistry(seed=42)))
    assert summary.total_requests == 40658
    assert summary.num_files == 3600
    assert summary.popularity_max == pytest.approx(prof.popularity_max, rel=0.15)
    assert summary.popularity_mean == pytest.approx(prof.popularity_mean, rel=0.15)


def test_scaled_profile_validation():
    with pytest.raises(ValueError):
        PROFILES["EPA"].scaled(0.0)
    with pytest.raises(ValueError):
        PROFILES["EPA"].scaled(1.5)
    assert PROFILES["EPA"].scaled(1.0) is PROFILES["EPA"]


def test_scaled_profile_shrinks_consistently():
    prof = PROFILES["NASA"].scaled(0.1)
    assert prof.total_requests == pytest.approx(6182, abs=2)
    assert prof.num_files == pytest.approx(101, abs=1)
    assert prof.duration == PROFILES["NASA"].duration


def test_summary_row_formatting(epa_small):
    _prof, trace = epa_small
    row = summarize(trace).row()
    assert "EPA" in row and "KB" in row
