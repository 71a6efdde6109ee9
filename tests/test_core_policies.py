"""Unit tests for the protocol strategy objects themselves."""

import math

import pytest

from repro.core import (
    SERVE,
    VALIDATE,
    AdaptiveTtlPolicy,
    PollEveryTimePolicy,
    adaptive_ttl,
    invalidation,
    lease_invalidation,
    poll_every_time,
    two_tier_lease,
)
from repro.core.invalidation import InvalidationPolicy
from repro.http import make_get, make_reply_200
from repro.proxy import CacheEntry


def entry(lm=0.0, expires=math.inf, lease=math.inf):
    e = CacheEntry(
        url="/a", client_id="c", size=10, last_modified=lm, expires=expires,
    )
    e.lease_expires = lease
    return e


def reply(last_modified=0.0, lease_expires=None):
    req = make_get("p", "s", "/a", client_id="c")
    return make_reply_200(req, body_bytes=10, last_modified=last_modified,
                          lease_expires=lease_expires)


class TestAdaptiveTtlPolicy:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AdaptiveTtlPolicy(factor=0)
        with pytest.raises(ValueError):
            AdaptiveTtlPolicy(min_ttl=-1)
        with pytest.raises(ValueError):
            AdaptiveTtlPolicy(min_ttl=100, max_ttl=10)

    def test_ttl_proportional_to_age(self):
        policy = AdaptiveTtlPolicy(factor=0.2, min_ttl=0.0, max_ttl=1e12)
        assert policy.ttl_for_age(1000.0) == pytest.approx(200.0)

    def test_ttl_clamped(self):
        policy = AdaptiveTtlPolicy(factor=0.2, min_ttl=60.0, max_ttl=600.0)
        assert policy.ttl_for_age(1.0) == 60.0
        assert policy.ttl_for_age(1e9) == 600.0

    def test_on_fill_sets_expiry_from_age(self):
        policy = AdaptiveTtlPolicy(factor=0.5, min_ttl=0.0)
        e = entry()
        policy.on_fill(e, reply(last_modified=100.0), now=300.0)
        # age 200 -> ttl 100 -> expires at 400.
        assert e.expires == pytest.approx(400.0)

    def test_on_validated_extends_expiry(self):
        policy = AdaptiveTtlPolicy(factor=0.5, min_ttl=0.0)
        e = entry(lm=0.0)
        policy.on_validated(e, reply(last_modified=0.0), now=1000.0)
        assert e.expires == pytest.approx(1500.0)

    def test_action_follows_expiry(self):
        policy = AdaptiveTtlPolicy()
        assert policy.action(entry(expires=100.0), now=50.0) == SERVE
        assert policy.action(entry(expires=100.0), now=100.0) == VALIDATE

    def test_protocol_bundle(self):
        protocol = adaptive_ttl()
        assert protocol.expired_first_cache
        assert not protocol.strong
        assert not protocol.uses_invalidation


class TestPollEveryTimePolicy:
    def test_always_validates(self):
        policy = PollEveryTimePolicy()
        assert policy.action(entry(), now=0.0) == VALIDATE
        assert policy.action(entry(expires=1e12), now=0.0) == VALIDATE

    def test_protocol_bundle(self):
        protocol = poll_every_time()
        assert protocol.strong
        assert not protocol.uses_invalidation
        assert not protocol.expired_first_cache


class TestInvalidationPolicy:
    def test_serves_while_lease_valid(self):
        policy = InvalidationPolicy()
        assert policy.action(entry(lease=math.inf), now=1e12) == SERVE
        assert policy.action(entry(lease=100.0), now=99.0) == SERVE
        assert policy.action(entry(lease=100.0), now=101.0) == VALIDATE

    def test_protocol_bundles(self):
        plain = invalidation()
        assert plain.uses_invalidation
        assert plain.accelerator.blocking_send
        assert not plain.accelerator.grant_leases

        decoupled = invalidation(blocking=False)
        assert not decoupled.accelerator.blocking_send

        leased = lease_invalidation(lease_duration=3600.0)
        assert leased.accelerator.grant_leases
        assert leased.accelerator.lease_get == 3600.0
        assert leased.accelerator.lease_ims == 3600.0

        two_tier = two_tier_lease(lease_duration=3600.0)
        assert two_tier.accelerator.lease_get == 0.0
        assert two_tier.accelerator.lease_ims == 3600.0

    def test_lease_duration_validation(self):
        with pytest.raises(ValueError):
            lease_invalidation(lease_duration=0)
        with pytest.raises(ValueError):
            two_tier_lease(lease_duration=-1)


class TestHitDefinitions:
    """The per-protocol hit accounting of Section 5.2."""

    class FakeOutcome:
        def __init__(self, had=False, served=False):
            self.had_cached_copy = had
            self.served_from_cache = served

    def test_polling_counts_stale_hits(self):
        policy = PollEveryTimePolicy()
        # Found a (stale) copy, got a 200: still a "hit" in the paper.
        assert policy.is_hit(self.FakeOutcome(had=True, served=False))
        assert not policy.is_hit(self.FakeOutcome(had=False))

    def test_ttl_counts_served_from_cache(self):
        policy = AdaptiveTtlPolicy()
        assert policy.is_hit(self.FakeOutcome(had=True, served=True))
        assert not policy.is_hit(self.FakeOutcome(had=True, served=False))

    def test_invalidation_counts_served_from_cache(self):
        policy = InvalidationPolicy()
        assert policy.is_hit(self.FakeOutcome(had=True, served=True))
        assert not policy.is_hit(self.FakeOutcome(had=True, served=False))
