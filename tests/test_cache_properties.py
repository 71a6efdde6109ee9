"""Property-based (stateful) tests of the cache's invariants."""

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.proxy import Cache, CacheEntry

CAPACITY = 1000


class CacheMachine(RuleBasedStateMachine):
    """Random put/get/remove/evict sequences against a bounded cache."""

    def __init__(self):
        super().__init__()
        self.cache = Cache(capacity_bytes=CAPACITY, expired_first=True)
        self.clock = 0.0
        self.model = {}  # key -> size of entries we believe are cached

    def _tick(self) -> float:
        self.clock += 1.0
        return self.clock

    @rule(
        doc=st.integers(min_value=0, max_value=9),
        client=st.integers(min_value=0, max_value=3),
        size=st.integers(min_value=1, max_value=400),
        ttl=st.floats(min_value=0.0, max_value=50.0),
    )
    def put(self, doc, client, size, ttl):
        now = self._tick()
        entry = CacheEntry(
            url=f"/d{doc}",
            client_id=f"c{client}",
            size=size,
            last_modified=0.0,
            expires=now + ttl,
        )
        accepted = self.cache.put(entry, now)
        assert accepted == (size <= CAPACITY)
        if accepted:
            # Rebuild the model from the cache's own key list: evictions
            # may have removed arbitrary other entries.
            self.model = {
                key: self.cache.peek(key).size for key in self.cache.keys()
            }
        assert entry.key in self.cache

    @rule(
        doc=st.integers(min_value=0, max_value=9),
        client=st.integers(min_value=0, max_value=3),
    )
    def get(self, doc, client):
        now = self._tick()
        key = f"/d{doc}@c{client}"
        entry = self.cache.get(key, now)
        if key in self.model:
            assert entry is not None
            assert entry.size == self.model[key]
            assert entry.last_used == now
        else:
            assert entry is None

    @rule(
        doc=st.integers(min_value=0, max_value=9),
        client=st.integers(min_value=0, max_value=3),
    )
    def remove(self, doc, client):
        key = f"/d{doc}@c{client}"
        freed = self.cache.remove(key)
        assert freed == self.model.pop(key, 0)

    @rule()
    def mark_questionable(self):
        flagged = self.cache.mark_all_questionable()
        assert flagged == len(self.model)

    @invariant()
    def bytes_accounting_consistent(self):
        assert self.cache.used_bytes == sum(
            self.cache.peek(key).size for key in self.cache.keys()
        )

    @invariant()
    def capacity_respected(self):
        assert self.cache.used_bytes <= CAPACITY

    @invariant()
    def model_subset_of_cache(self):
        for key, size in self.model.items():
            entry = self.cache.peek(key)
            assert entry is not None
            assert entry.size == size

    @invariant()
    def length_matches_model(self):
        assert len(self.cache) == len(self.model)


TestCacheStateMachine = CacheMachine.TestCase
TestCacheStateMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_unbounded_cache_never_evicts():
    cache = Cache(capacity_bytes=None)
    for i in range(200):
        cache.put(
            CacheEntry(
                url=f"/d{i}", client_id="c", size=10_000, last_modified=0.0,
            ),
            now=float(i),
        )
    assert len(cache) == 200
    assert cache.evictions == 0


def test_infinite_expiry_entries_never_chosen_as_expired():
    cache = Cache(capacity_bytes=100, expired_first=True)
    for i in range(10):
        cache.put(
            CacheEntry(
                url=f"/d{i}", client_id="c", size=10, last_modified=0.0,
                expires=math.inf,
            ),
            now=float(i),
        )
    cache.put(
        CacheEntry(
            url="/new", client_id="c", size=50, last_modified=0.0,
            expires=math.inf,
        ),
        now=100.0,
    )
    assert cache.expired_evictions == 0
    assert cache.used_bytes <= 100
