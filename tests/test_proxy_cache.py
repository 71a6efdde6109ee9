"""Unit tests for cache entries and the bounded cache."""

import dataclasses
import math

import pytest

from repro.proxy import Cache, CacheEntry, entry_key


def entry(url="/a", client="c1", size=100, lm=0.0, expires=math.inf):
    return CacheEntry(
        url=url,
        client_id=client,
        size=size,
        last_modified=lm,
        expires=expires,
    )


class TestEntry:
    def test_key_format(self):
        assert entry_key("/a", "c1") == "/a@c1"
        assert entry().key == "/a@c1"

    def test_key_follows_url_and_client_through_replace(self):
        e = entry(url="/x", client="c9")
        assert e.key == entry_key("/x", "c9")
        for changes in ({"url": "/y"}, {"client_id": "c2"}, {"size": 7}):
            copy = dataclasses.replace(e, **changes)
            assert copy.key == entry_key(copy.url, copy.client_id)
        assert e.key == entry_key("/x", "c9")

    def test_ttl_freshness(self):
        e = entry(expires=10.0)
        assert e.fresh_by_ttl(5.0)
        assert not e.fresh_by_ttl(10.0)

    def test_lease_validity(self):
        e = entry()
        e.lease_expires = 10.0
        assert e.lease_valid(10.0)
        assert not e.lease_valid(10.1)
        assert entry().lease_valid(1e12)  # default: infinite


class TestCacheBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Cache(capacity_bytes=0)

    def test_put_get_roundtrip(self):
        cache = Cache()
        e = entry()
        assert cache.put(e, now=0.0)
        assert cache.get(e.key, now=1.0) is e
        assert e.last_used == 1.0
        assert len(cache) == 1
        assert cache.used_bytes == 100

    def test_get_missing_returns_none(self):
        assert Cache().get("/nope@c", now=0.0) is None

    def test_separate_clients_separate_entries(self):
        cache = Cache()
        cache.put(entry(client="c1"), now=0.0)
        cache.put(entry(client="c2"), now=0.0)
        assert len(cache) == 2

    def test_replace_updates_bytes(self):
        cache = Cache()
        cache.put(entry(size=100), now=0.0)
        cache.put(entry(size=250), now=1.0)
        assert len(cache) == 1
        assert cache.used_bytes == 250

    def test_remove_returns_freed_bytes(self):
        cache = Cache()
        e = entry(size=70)
        cache.put(e, now=0.0)
        assert cache.remove(e.key) == 70
        assert cache.remove(e.key) == 0
        assert cache.used_bytes == 0

    def test_oversized_document_not_cached(self):
        cache = Cache(capacity_bytes=50)
        assert cache.put(entry(size=100), now=0.0) is False
        assert len(cache) == 0
        assert cache.uncacheable == 1

    def test_mark_all_questionable(self):
        cache = Cache()
        cache.put(entry(client="c1"), now=0.0)
        cache.put(entry(client="c2"), now=0.0)
        assert cache.mark_all_questionable() == 2
        assert all(cache.peek(k).questionable for k in cache.keys())

    def test_clear(self):
        cache = Cache()
        cache.put(entry(), now=0.0)
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0


class TestLruReplacement:
    def test_evicts_least_recently_used(self):
        cache = Cache(capacity_bytes=300)
        e1, e2, e3 = (entry(url=f"/u{i}", size=100) for i in range(3))
        cache.put(e1, now=0.0)
        cache.put(e2, now=1.0)
        cache.put(e3, now=2.0)
        cache.get(e1.key, now=3.0)  # refresh e1
        cache.put(entry(url="/u4", size=100), now=4.0)
        assert e2.key not in cache  # e2 was LRU
        assert e1.key in cache
        assert cache.evictions == 1

    def test_evicts_multiple_until_fit(self):
        cache = Cache(capacity_bytes=300)
        for i in range(3):
            cache.put(entry(url=f"/u{i}", size=100), now=float(i))
        cache.put(entry(url="/big", size=250), now=5.0)
        assert cache.used_bytes <= 300
        assert "/big@c1" in cache
        assert cache.evictions == 3


class TestExpiredFirstReplacement:
    def test_expired_entry_evicted_before_lru(self):
        cache = Cache(capacity_bytes=300, expired_first=True)
        fresh_old = entry(url="/old", size=100, expires=1000.0)
        expired_recent = entry(url="/exp", size=100, expires=5.0)
        cache.put(fresh_old, now=0.0)
        cache.put(expired_recent, now=1.0)
        cache.put(entry(url="/x", size=100), now=2.0)
        # At now=10, /exp is expired even though /old is older by LRU.
        cache.put(entry(url="/new", size=100), now=10.0)
        assert expired_recent.key not in cache
        assert fresh_old.key in cache
        assert cache.expired_evictions == 1

    def test_earliest_expiry_evicted_first(self):
        cache = Cache(capacity_bytes=200, expired_first=True)
        e_late = entry(url="/late", size=100, expires=8.0)
        e_early = entry(url="/early", size=100, expires=3.0)
        cache.put(e_late, now=0.0)
        cache.put(e_early, now=1.0)
        cache.put(entry(url="/new", size=100), now=10.0)
        assert e_early.key not in cache
        assert e_late.key in cache

    def test_falls_back_to_lru_when_nothing_expired(self):
        cache = Cache(capacity_bytes=200, expired_first=True)
        e1 = entry(url="/a", size=100, expires=100.0)
        e2 = entry(url="/b", size=100, expires=100.0)
        cache.put(e1, now=0.0)
        cache.put(e2, now=1.0)
        cache.put(entry(url="/c", size=100, expires=100.0), now=2.0)
        assert e1.key not in cache  # LRU victim
        assert cache.expired_evictions == 0

    def test_stale_heap_records_skipped_after_refresh(self):
        cache = Cache(capacity_bytes=200, expired_first=True)
        e = entry(url="/a", size=100, expires=5.0)
        cache.put(e, now=0.0)
        # Refresh the same document with a later expiry.
        e2 = entry(url="/a", size=100, expires=50.0)
        cache.put(e2, now=1.0)
        other = entry(url="/b", size=100, expires=50.0)
        cache.put(other, now=2.0)
        # now=10: the old heap record (expires=5) is stale; nothing is
        # really expired, so LRU evicts /a (oldest recency is /a at t=1).
        cache.put(entry(url="/c", size=100, expires=60.0), now=10.0)
        assert cache.expired_evictions == 0
        assert len(cache) == 2

    def test_inplace_ttl_refresh_keeps_entry_visible_to_expired_first(self):
        """Regression: a TTL policy extends entry.expires *in place* on
        revalidation; without note_expiry_update the entry's only heap
        record went stale and the entry could never again be picked as
        an expired victim — a fresh LRU entry was evicted instead."""
        cache = Cache(capacity_bytes=200, expired_first=True)
        refreshed = entry(url="/a", size=100, expires=100.0)
        fresh = entry(url="/b", size=100, expires=1000.0)
        cache.put(refreshed, now=0.0)
        cache.put(fresh, now=1.0)
        # Revalidation at t=150 extends /a's deadline in place to 200.
        refreshed.expires = 200.0
        assert cache.note_expiry_update(refreshed.key)
        # Make /b the LRU victim so plain LRU would evict the *fresh* copy.
        cache.get(refreshed.key, now=250.0)
        # t=300: /a is expired again (200 < 300); expired-first must pick
        # it over the fresh-but-LRU /b.
        cache.put(entry(url="/c", size=100, expires=1000.0), now=300.0)
        assert refreshed.key not in cache
        assert fresh.key in cache
        assert cache.expired_evictions == 1

    def test_interleaved_insert_update_remove_evict_accounting(self):
        """Interleave every mutation; stale heap tuples must neither
        select phantom victims nor inflate expired_evictions."""
        cache = Cache(capacity_bytes=300, expired_first=True)
        a = entry(url="/a", size=100, expires=10.0)
        cache.put(a, now=0.0)
        # Update /a twice with identical expiry (duplicate heap tuples).
        cache.put(entry(url="/a", size=100, expires=10.0), now=1.0)
        cache.put(entry(url="/a", size=100, expires=10.0), now=2.0)
        # Remove it outright (e.g. an INVALIDATE), then re-insert fresh.
        assert cache.remove(entry_key("/a", "c1")) == 100
        cache.put(entry(url="/a", size=100, expires=500.0), now=3.0)
        cache.put(entry(url="/b", size=100, expires=20.0), now=4.0)
        cache.put(entry(url="/c", size=100, expires=1000.0), now=5.0)
        # t=50: /b is the only expired entry.  The three stale /a tuples
        # (expires=10) sort first but must all be skipped — the live /a
        # now expires at 500.
        cache.put(entry(url="/d", size=100, expires=1000.0), now=50.0)
        assert entry_key("/b", "c1") not in cache
        assert entry_key("/a", "c1") in cache
        assert cache.expired_evictions == 1
        assert cache.evictions == 1
        # Second eviction at t=60: nothing expired; must fall back to
        # LRU (/a, inserted at t=3) without touching expired_evictions.
        cache.put(entry(url="/e", size=100, expires=1000.0), now=60.0)
        assert entry_key("/a", "c1") not in cache
        assert cache.expired_evictions == 1
        assert cache.evictions == 2
        assert cache.used_bytes == 300 and len(cache) == 3

    def test_note_expiry_update_unknown_key(self):
        cache = Cache(capacity_bytes=200, expired_first=True)
        assert not cache.note_expiry_update("/nope@c1")

    def test_heap_compaction_bounds_stale_tuples(self):
        cache = Cache(capacity_bytes=10_000, expired_first=True)
        e = entry(url="/hot", size=100, expires=10.0)
        cache.put(e, now=0.0)
        # Thousands of in-place refreshes must not grow the heap without
        # bound (each pushes a tuple; compaction rebuilds from live
        # entries once stale tuples dominate).
        for i in range(5000):
            e.expires = 10.0 + i
            cache.note_expiry_update(e.key)
        assert len(cache._expiry_heap) <= 4 * len(cache._entries) + 64
        # The surviving record still reflects the latest expiry.
        cache.put(entry(url="/filler", size=9900, expires=1e9), now=1.0)
        assert e.key in cache
