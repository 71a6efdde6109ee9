"""Sharded accelerator cluster tests.

Five layers of guarantees:

1. **Single accelerator** — ``shards=1`` runs produce serialized
   results with no cluster artefacts, for every protocol family (the
   bit-identity contract with the pre-cluster harness; the result
   digests themselves are pinned in ``test_golden_digests.py``).
2. **Hash ring** — consistent hashing moves only the departed node's
   keys (~K/N of them), reverts exactly on rejoin, and ``exclude``
   walks clockwise to the node that would own the key if the excluded
   shard were gone (failover == temporary removal).
3. **Batching** — the fan-out coalescer flushes on exact ``batch_max``
   fill, on the ``batch_window`` timer, deduplicates repeated
   modifications of one document inside a window, and a 4-shard batched
   replay delivers every obligation of the unbatched run in fewer
   messages.
4. **Failover + eviction** — the shard-crash chaos schedule replays
   with zero auditor violations, shard faults without a cluster are
   rejected loudly, and the site-list lease-grace eviction counts and
   reclaims correctly.
5. **Routing** — the cluster's remembered owner of a document always
   equals a fresh ring's answer for the current crashes and drains, and
   an INVALIDATE one shard abandoned is re-sent at the proxy's next
   request even when another shard serves that request.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import Fault, FaultSchedule, apply_schedule, random_schedule
from repro.core.adaptive_ttl import adaptive_ttl
from repro.core.invalidation import invalidation
from repro.core.leases import lease_invalidation, two_tier_lease
from repro.core.polling import poll_every_time
from repro.http import HttpResponse, Invalidate, make_get
from repro.net import FixedLatency, Network
from repro.obs import Observation
from repro.proxy import Cache, ProxyCache
from repro.replay.experiment import ExperimentConfig, run_experiment
from repro.replay.serialize import result_to_dict
from repro.server import AcceleratorConfig, FileStore, ServerSite
from repro.server.cluster import AcceleratorCluster, HashRing
from repro.server.sitelist import InvalidationTable
from repro.sim import RngRegistry, Simulator
from repro.traces import generate_trace, profile

PROTOCOLS = [
    adaptive_ttl,
    poll_every_time,
    invalidation,
    lease_invalidation,
    two_tier_lease,
]

_TRACES = {}


def _trace(trace_seed: int):
    if trace_seed not in _TRACES:
        _TRACES[trace_seed] = generate_trace(
            profile("EPA").scaled(0.02), RngRegistry(seed=trace_seed)
        )
    return _TRACES[trace_seed]


def _replay(factory, **overrides) -> dict:
    config = ExperimentConfig(
        trace=_trace(3),
        protocol=factory(),
        mean_lifetime=7 * 86400.0,
        seed=11,
        **overrides,
    )
    return result_to_dict(run_experiment(config))


# -- 1. shards=1 is the legacy single accelerator ---------------------------


@pytest.mark.parametrize("factory", PROTOCOLS, ids=lambda f: f.__name__)
def test_shards_one_differential(factory):
    data = _replay(factory, shards=1)
    # No cluster artefacts may leak into the serialized result: its key
    # set feeds the results digest, which must stay byte-identical to
    # the pre-cluster harness for single-accelerator runs.
    assert "cluster" not in data
    assert data["counters"]["requests"] == data["total_requests"] > 0


# -- 2. hash ring ----------------------------------------------------------

_KEYS = [f"/doc/{i}.html" for i in range(2000)]
_NODES = tuple(f"shard-{i}" for i in range(8))


def test_ring_owner_deterministic_across_instances():
    a = HashRing(_NODES)
    b = HashRing(_NODES)
    assert [a.owner(k) for k in _KEYS] == [b.owner(k) for k in _KEYS]
    # Insertion order must not matter either.
    c = HashRing(tuple(reversed(_NODES)))
    assert [a.owner(k) for k in _KEYS] == [c.owner(k) for k in _KEYS]


def test_ring_remove_moves_only_departed_keys():
    # Excluding a shard is how failover and drains take it off the ring.
    ring = HashRing(_NODES)
    before = {k: ring.owner(k) for k in _KEYS}
    after = {k: ring.owner(k, exclude=("shard-3",)) for k in _KEYS}
    moved = [k for k in _KEYS if before[k] != after[k]]
    # Exactly the departed shard's keys move — nobody else's.
    assert set(moved) == {k for k in _KEYS if before[k] == "shard-3"}
    assert all(after[k] != "shard-3" for k in _KEYS)
    # And roughly K/N of the keyspace moves (1/8 = 12.5% expected; wide
    # tolerance for vnode placement variance).
    fraction = len(moved) / len(_KEYS)
    assert 0.04 < fraction < 0.30


def test_ring_rejoin_reverts_exactly():
    ring = HashRing(_NODES)
    before = {k: ring.owner(k) for k in _KEYS}
    for k in _KEYS:
        ring.owner(k, exclude=("shard-5",))
    assert {k: ring.owner(k) for k in _KEYS} == before


def test_ring_exclude_equals_removal():
    ring = HashRing(_NODES)
    removed = HashRing(tuple(n for n in _NODES if n != "shard-2"))
    for key in _KEYS[:200]:
        assert ring.owner(key, exclude=("shard-2",)) == removed.owner(key)


def test_ring_hashes_each_key_once_across_membership_changes(monkeypatch):
    # A ring hashes each routed key once, whatever it excludes.  A node's
    # virtual-node points depend on the node alone, so they are hashed
    # once per process, whichever ring first holds the node: a ring of
    # another membership hashes only the nodes no ring has held.
    ring = HashRing(_NODES)
    owners = [ring.owner(k) for k in _KEYS]
    hashed = []
    real = HashRing._hash
    monkeypatch.setattr(
        HashRing, "_hash", staticmethod(lambda key: hashed.append(key) or real(key))
    )
    assert [ring.owner(k, exclude=("shard-4",)) for k in _KEYS] != owners
    assert [ring.owner(k) for k in _KEYS] == owners
    assert len(hashed) == 0
    # A node no ring has held costs its 64 virtual nodes, and no key.
    changed = HashRing(
        [n for n in _NODES if n != "shard-4"] + ["shard-new-to-this-process"]
    )
    assert len(hashed) == 64
    assert not set(hashed) & set(_KEYS)
    assert "shard-new-to-this-process" in [changed.owner(k) for k in _KEYS]


# -- 3. batching boundary cases (manual testbed, one shard) ----------------


def _build_shard(batch_window: float, batch_max: int, max_retries=None):
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.001), connect_timeout=0.5)
    fs = FileStore.from_catalog(
        {"/a.html": 4096, "/b.html": 2048, "/c.html": 1024}
    )
    protocol = invalidation(retry_interval=5.0, max_retries=max_retries)
    shard = ServerSite(
        sim, net, "server", fs, accel=protocol.accelerator,
        batch_window=batch_window, batch_max=batch_max,
    )
    proxy = ProxyCache(
        sim, net, "proxy-0", "server",
        policy=protocol.client_policy,
        cache=Cache(),
        oracle=lambda url: fs.get(url).last_modified,
    )
    return sim, fs, shard, proxy


def _fetch(sim, proxy, client, url):
    outcomes = []
    proxy.submit(client, url, outcomes.append)
    sim.run()
    (outcome,) = outcomes
    return outcome


def test_batch_max_exact_fill_flushes_immediately():
    sim, fs, shard, proxy = _build_shard(batch_window=1000.0, batch_max=2)
    _fetch(sim, proxy, "alice", "/a.html")
    _fetch(sim, proxy, "alice", "/b.html")
    fs.modify("/a.html", now=sim.now)
    shard.check_in("/a.html")
    assert shard.batches_sent == 0  # below the cap: still buffering
    fs.modify("/b.html", now=sim.now)
    shard.check_in("/b.html")  # hits batch_max -> immediate flush
    sim.run(until=sim.now + 1.0)
    assert shard.batches_sent == 1
    assert shard.invalidations_sent == 1
    assert shard.batched_invalidations == 2
    assert proxy.invalidations_received == 1  # one message for both pairs
    assert len(proxy.cache) == 0  # both copies dropped
    assert not shard._pending_inval  # both obligations closed


def test_abandoned_batch_is_resent_pair_by_pair_on_contact():
    sim, fs, shard, proxy = _build_shard(
        batch_window=1000.0, batch_max=2, max_retries=0
    )
    received = []
    handle = proxy._handle_invalidate

    def record(message):
        received.append(message)
        handle(message)

    proxy._handle_invalidate = record
    _fetch(sim, proxy, "alice", "/a.html")
    _fetch(sim, proxy, "alice", "/b.html")
    shard.network.set_down("proxy-0")
    for url in ("/a.html", "/b.html"):
        fs.modify(url, now=sim.now)
        shard.check_in(url)  # the second fills the buffer: one flush
    sim.run()
    assert shard.invalidations_abandoned == 2
    assert shard.batches_sent == 0
    shard.network.set_up("proxy-0")
    _fetch(sim, proxy, "bob", "/c.html")  # the contact re-sends what is owed
    assert [message.pairs for message in received] == [
        (("/a.html", ("alice",)),),
        (("/b.html", ("alice",)),),
    ]
    assert shard.invalidations_sent == 2
    assert shard.batches_sent == 0  # a re-send is no batch
    assert shard.batched_invalidations == 0
    assert not shard._pending_inval


def test_batch_window_timer_flushes():
    sim, fs, shard, proxy = _build_shard(batch_window=5.0, batch_max=0)
    _fetch(sim, proxy, "bob", "/a.html")
    t0 = sim.now
    fs.modify("/a.html", now=t0)
    shard.check_in("/a.html")
    sim.run(until=t0 + 4.0)
    assert shard.invalidations_sent == 0  # window still open
    assert shard._pending_inval  # obligation already owed
    sim.run(until=t0 + 6.0)
    assert shard.batches_sent == 1
    assert shard.batched_invalidations == 1
    assert not shard._pending_inval


def test_batch_dedups_repeated_modification():
    sim, fs, shard, proxy = _build_shard(batch_window=5.0, batch_max=0)
    _fetch(sim, proxy, "carol", "/a.html")
    t0 = sim.now
    fs.modify("/a.html", now=t0)
    shard.check_in("/a.html")
    fs.modify("/a.html", now=t0)
    shard.check_in("/a.html")  # same (url, client) inside the window
    sim.run(until=t0 + 6.0)
    assert shard.batches_sent == 1
    assert shard.batched_invalidations == 1  # deduplicated
    assert not shard._pending_inval


def test_unbatched_shard_uses_legacy_fanout():
    sim, fs, shard, proxy = _build_shard(batch_window=0.0, batch_max=0)
    _fetch(sim, proxy, "dave", "/a.html")
    fs.modify("/a.html", now=sim.now)
    shard.check_in("/a.html")
    sim.run(until=sim.now + 1.0)
    assert shard.invalidations_sent == 1
    assert shard.batches_sent == 0  # per-entry path, no batch counters


# -- 4. cluster replays: fan-out reduction and shard-crash chaos -----------


def test_cluster_batched_fanout_reduction():
    unbatched = _replay(invalidation, shards=4)
    batched = _replay(invalidation, shards=4, batch_window=1.0, batch_max=32)
    # Same workload, same obligations — at least 30% fewer wire
    # messages, the reduction docs/cluster.md documents (52 -> 18 here).
    assert batched["invalidations_sent"] <= 0.7 * unbatched["invalidations_sent"]
    # Every invalidation of the unbatched run rides inside some batch.
    assert (
        batched["cluster"]["batched_invalidations_delivered"]
        == unbatched["invalidations_sent"]
    )
    assert batched["cluster"]["batches_delivered"] > 0
    assert unbatched["cluster"]["imbalance_ratio"] >= 1.0
    # Batching changes message packing, not request routing.
    def routed(data):
        return {
            name: shard["requests_routed"]
            for name, shard in data["cluster"]["per_shard"].items()
        }

    assert routed(batched) == routed(unbatched)
    assert sum(routed(batched).values()) > 0
    for data in (unbatched, batched):
        assert data["cluster"]["shards"] == 4


_CHAOS_FAULTS = (
    Fault("shard_crash", 60.0, 200.0, target="shard-1",
          params={"lose_sitelog": False}),
    Fault("shard_rebalance", 250.0, 400.0, target="shard-2"),
    Fault("shard_crash", 300.0, 450.0, target="shard-3",
          params={"lose_sitelog": True}),
)


def test_shard_crash_chaos_stays_strong():
    schedule = FaultSchedule(seed=0, horizon=500.0, faults=_CHAOS_FAULTS)
    config = ExperimentConfig(
        trace=_trace(3),
        protocol=invalidation(),
        mean_lifetime=7 * 86400.0,
        seed=11,
        shards=4,
        batch_window=1.0,
        batch_max=32,
        fault_schedule=schedule,
        audit=True,
    )
    result = run_experiment(config)
    assert result.chaos["violation_count"] == 0
    assert result.cluster["shard_crashes"] == 2
    assert result.cluster["rebalances"] >= 1
    assert result.cluster["handoffs"] > 0  # failover actually exercised


def test_shard_that_lost_its_site_log_invalidates_the_roster():
    # A shard that loses its site log forgets who holds its documents and
    # on recovery sends INVALIDATE-by-server to its roster alone.  Every
    # shard needs the roster: without it this replay served stale copies
    # twice and no proxy heard from the recovered shard.
    trace = generate_trace(profile("EPA").scaled(0.05), RngRegistry(seed=3))
    crash = Fault("shard_crash", 300.0, 450.0, target="shard-3",
                  params={"lose_sitelog": True})
    observation = Observation()
    result = run_experiment(
        ExperimentConfig(
            trace=trace,
            protocol=invalidation(),
            mean_lifetime=7 * 86400.0,
            seed=11,
            shards=4,
            batch_window=1.0,
            batch_max=32,
            fault_schedule=FaultSchedule(seed=0, horizon=500.0, faults=(crash,)),
            audit=True,
            observation=observation,
        )
    )
    observation.close()
    assert result.violations == 0
    assert observation.registry.total("proxy_server_invalidations_received") == 4


def test_shard_faults_require_cluster():
    schedule = FaultSchedule(
        seed=0, horizon=100.0,
        faults=(Fault("shard_crash", 10.0, 50.0, target="shard-1"),),
    )
    with pytest.raises(ValueError, match="no accelerator cluster"):
        apply_schedule(schedule.faults, sim=None, network=None, server=None,
                       proxies={}, cluster=None)
    rebalance = FaultSchedule(
        seed=0, horizon=100.0,
        faults=(Fault("shard_rebalance", 10.0, 50.0, target="shard-1"),),
    )
    with pytest.raises(ValueError, match="no accelerator cluster"):
        apply_schedule(rebalance.faults, sim=None, network=None, server=None,
                       proxies={}, cluster=None)


def test_random_schedule_shard_kinds_gated():
    proxies = ["proxy-0", "proxy-1"]
    # Without shards the sampling stream never draws shard kinds (and
    # stays bit-identical to the pre-cluster harness).
    for seed in range(30):
        schedule = random_schedule(seed, 1000.0, proxies)
        assert all(
            not f.kind.startswith("shard_") for f in schedule.faults
        )
    # With shards, some seed draws one.
    shards = [f"shard-{i}" for i in range(4)]
    assert any(
        any(f.kind.startswith("shard_") for f in
            random_schedule(seed, 1000.0, proxies, shards=shards).faults)
        for seed in range(30)
    )


# -- 5. site-list lease-grace eviction -------------------------------------


def test_purge_url_counts_and_reclaims():
    table = InvalidationTable()
    table.register("/a", "c1", "proxy-0", now=0.0, lease_expires=10.0)
    table.register("/a", "c2", "proxy-0", now=0.0, lease_expires=10.0)
    assert table.purge_url("/a", cutoff=20.0) == 2
    assert table.evictions == 2
    # The empty list object is reclaimed outright.
    assert table.total_entries() == 0
    assert table.storage_bytes() == 0


def test_purge_url_keeps_live_entries():
    table = InvalidationTable()
    table.register("/a", "c1", "proxy-0", now=0.0, lease_expires=10.0)
    table.register("/a", "c2", "proxy-0", now=0.0, lease_expires=math.inf)
    assert table.purge_url("/a", cutoff=20.0) == 1
    assert table.evictions == 1
    assert "c2" in table.site_list("/a")


def test_evict_round_budget_and_rotation():
    table = InvalidationTable()
    for i in range(3):
        table.register(f"/u{i}", "c", "proxy-0", now=0.0, lease_expires=10.0)
    # Budget of 2 sweeps two URLs this round, the third next round.
    assert table.evict_round(cutoff=20.0, budget=2) == 2
    assert table.evictions == 2
    assert table.evict_round(cutoff=20.0, budget=2) == 1
    assert table.evictions == 3
    assert table.total_entries() == 0
    # An idle table keeps returning zero.
    assert table.evict_round(cutoff=20.0, budget=2) == 0


def test_evict_round_requeues_surviving_lists():
    table = InvalidationTable()
    table.register("/mixed", "dead", "proxy-0", now=0.0, lease_expires=10.0)
    table.register("/mixed", "live", "proxy-0", now=0.0, lease_expires=math.inf)
    assert table.evict_round(cutoff=20.0, budget=8) == 1
    # The survivor's list stays, and stays in rotation for future rounds.
    assert "live" in table.site_list("/mixed")
    assert table.evict_round(cutoff=20.0, budget=8) == 0
    assert "live" in table.site_list("/mixed")


def test_table_wide_purge_does_not_count_as_eviction():
    table = InvalidationTable()
    table.register("/a", "c1", "proxy-0", now=0.0, lease_expires=10.0)
    assert table.purge_expired(20.0) == 1
    assert table.evictions == 0  # legacy purge is not the eviction path


def test_lease_run_reports_evictions_consistently():
    data = _replay(lease_invalidation, shards=1)
    evictions = data.get("sitelist_evictions", 0)
    # The field serializes only when nonzero (digest preservation).
    assert ("sitelist_evictions" in data) == (evictions > 0)
    assert evictions >= 0


# -- 5. batch-window staleness: pinned reproducer --------------------------
#
# With a one-second batch window, client-00018 at proxy-3 registered a
# fetch of /doc/00108.html while the batch invalidating it was in flight,
# and the batch's delivery used to delete that newer registration.  The
# next modification then found no site to invalidate, and the auditor
# recorded four silent-staleness serves.  Entries registered after their
# INVALIDATE's obligation opened are now kept, so the run is clean.

_CLARKNET = []


def _clarknet_batched(batch_window: float):
    if not _CLARKNET:
        _CLARKNET.append(
            generate_trace(profile("ClarkNet").scaled(0.025), RngRegistry(20410))
        )
    trace = _CLARKNET[0]
    return run_experiment(
        ExperimentConfig(
            trace=trace,
            protocol=invalidation(),
            mean_lifetime=trace.duration / 4,
            seed=20410,
            shards=4,
            batch_window=batch_window,
            batch_max=32,
            audit=True,
        )
    )


@pytest.mark.parametrize("batch_window, expected", [(1.0, 0), (0.0, 0)])
def test_batch_window_violations_are_reported(batch_window, expected):
    result = _clarknet_batched(batch_window)
    assert result.chaos["violation_count"] == expected
    # The headline count agrees with the auditor ...
    assert result.violations == expected
    # ... while the serialized proxy-marker count is left as it was.
    assert result_to_dict(result)["counters"]["violations"] == 0


@pytest.mark.parametrize("batch_window", [0.5, 1.0, 5.0])
def test_batch_window_run_is_auditor_clean(batch_window):
    assert _clarknet_batched(batch_window).chaos["violation_count"] == 0


# -- 6. routing: remembered owners and cross-shard flush-on-contact --------

_DOCS = {f"/doc/{i}.html": 1000 + i for i in range(64)}


def _build_cluster(accel=None):
    sim = Simulator()
    net = Network(sim, latency=FixedLatency(0.001), connect_timeout=0.5)
    fs = FileStore.from_catalog(_DOCS)
    cluster = AcceleratorCluster(sim, net, "server", fs, accel=accel, num_shards=4)
    return sim, net, fs, cluster


_SHARD_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(
                ["crash_shard", "recover_shard", "drain_shard", "restore_shard"]
            ),
            st.integers(min_value=0, max_value=3),
        ),
        st.tuples(st.sampled_from(["crash", "recover"]), st.none()),
    ),
    max_size=25,
)


@given(_SHARD_OPS)
@settings(max_examples=40, deadline=None)
def test_owner_of_matches_a_fresh_ring_after_every_membership_change(ops):
    sim, net, fs, cluster = _build_cluster()
    addresses = [shard.address for shard in cluster.shards]
    fresh = HashRing(addresses)
    drained = set()

    def check():
        crashed = {shard.address for shard in cluster.shards if not shard.up}
        for url in _DOCS:
            expected = fresh.owner(url, exclude=crashed | drained)
            if expected is None:  # everything excluded: the primary owner
                expected = fresh.owner(url)
            assert cluster.owner_of(url) == expected

    check()
    for op, index in ops:
        if index is None:
            getattr(cluster, op)()
        else:
            getattr(cluster, op)(addresses[index])
            if op == "drain_shard":
                drained.add(addresses[index])
            elif op == "restore_shard":
                drained.discard(addresses[index])
        check()


def test_abandoned_invalidate_is_resent_when_another_shard_serves_the_proxy():
    accel = AcceleratorConfig(invalidation=True, max_retries=0)
    sim, net, fs, cluster = _build_cluster(accel=accel)
    urls = sorted(_DOCS)
    stale = urls[0]
    owner = cluster.owner_of(stale)
    other = next(url for url in urls if cluster.owner_of(url) != owner)
    shard = cluster._by_address[owner]
    arrivals = []
    net.register("p2", lambda message: arrivals.append((sim.now, message)))
    net.send(make_get("p2", "server", stale, client_id="c1"))
    sim.run()
    net.set_down("p2")
    fs.modify(stale, now=sim.now)
    cluster.check_in(stale)
    sim.run()
    assert shard.invalidations_abandoned == 1
    net.set_up("p2")
    del arrivals[:]

    # The next request goes to a different shard; the contact is still
    # the owner's chance to re-send, at the instant the request arrives.
    start = sim.now
    net.send(make_get("p2", "server", other, client_id="c2"))
    sim.run()
    (inval_at, inval), (reply_at, reply) = sorted(
        arrivals, key=lambda arrival: arrival[0]
    )
    assert isinstance(inval, Invalidate) and inval.pairs == ((stale, ("c1",)),)
    assert inval.src == owner
    arrived = start + 0.001
    assert inval_at == pytest.approx(
        arrived + shard.costs.cpu_invalidate_msg + 0.001
    )
    assert isinstance(reply, HttpResponse) and reply.url == other
    assert reply.src != owner
    assert not shard.write_pending(stale, "c1")

    # Re-sent once: a further contact owes nothing.
    del arrivals[:]
    net.send(make_get("p2", "server", other, client_id="c2"))
    sim.run()
    assert not [m for _at, m in arrivals if isinstance(m, Invalidate)]
    assert shard.invalidations_sent == 1
