"""Golden result digests: replays must reproduce recorded results exactly.

Each case replays a small EPA trace and hashes its serialized result
(SHA-256 of the canonical JSON of :func:`result_to_dict`, minus the
wall-clock provenance fields).  The expected digests in
``tests/data/golden_digests.json`` were recorded with the code that still
had two request routes (the generator route and the callback route), and
both routes gave these same digests.  The cases cover every protocol
family, audited and sharded runs, a parent-cache hierarchy, a seeded
chaos schedule and observed runs (plain and deep), so any change to the
request route that moves a single outcome fails here.

The fan-out cases pin the INVALIDATE senders no other case reaches:
multicast, ``max_retries`` give-up with flush-on-contact (unsharded and
batched on four shards), and a recovery INVALIDATE-by-server that gives
up and is re-sent on contact.  They were recorded with the code that
still had a separate send routine per sender, and each asserts that its
run really took the path it pins (:data:`REACHES`).

The message timelines in ``tests/data/timeline_digests.json`` pin more
than the results do: each hashes every :meth:`Network.send` of a case
(send time, message class and category, source, destination, size), so
an INVALIDATE that leaves later while every counter stays the same
still fails.  They were recorded with the code that still ran the
origin server's request path as a generator process.

``invalidation-decoupled-audit`` is the one case whose fan-out does not
hold the accept lock (``blocking=False``, the paper's proposed fix); it
was recorded while the fan-out still ran as a generator process.

``invalidation-sdsc-sparse-audit`` replays a sparse SDSC trace at a
2.5-day lifetime.  Unlike the EPA cases, it has 300 s intervals in which
the modifier is the only busy participant (checked by
:func:`test_sparse_case_has_a_modification_only_interval`), so an
interval that ends without waiting for the modifier's per-touch overhead
moves it.  It was recorded while the time coordinator still ran
as a generator process.

``invalidation-audit-shards4-window1`` is the one case whose batch
buffers flush on the ``batch_window`` timer rather than on ``batch_max``
fill.  It was recorded while batching still lived in a separate shard
class; none of its site-list entries is registered while an INVALIDATE
for it is in flight, so neither folding batching into ``ServerSite`` nor
the registered-at rule for clearing entries may move it.

``invalidation-audit-shards4-shardcrash`` is the one case whose auditor
excuses stale serves as ``origin-down`` on a cluster: ``shard-1`` is
down from 100 s to 400 s of a 4-shard batched replay at a 0.5-day
lifetime, so the tier is not all up while proxies serve copies whose
INVALIDATE the crashed shard could not send.  It was recorded while the
cluster still mirrored the single accelerator's ``up`` flag.

``invalidation-audit-shards4-rebalance`` is the one case that routes
around a planned drain: ``shard-2`` is drained from 250 s to 400 s of a
4-shard batched replay while ``shard-3`` is crashed from 300 s to 450 s,
so a drained and a crashed shard are excluded at once and the site
lists move at the drain, the restore and the recovery.  It was recorded
while the cluster still looked each request's owner up on the hash ring.

``adaptive_lease-1k-audit`` is the one case that runs the adaptive-lease
controller.  Its 1 KB state budget makes the controller shrink the lease
(8 adjustments, 420 s down to 34.6 s), and the IMS traffic that forces
reaches the result; at the default 64 KB budget the case makes no IMS.
It was recorded while the controller still ran as a generator process.

The work pins in ``tests/data/golden_work.json`` pin what a replay
does to reach its result: the kernel entries it processes (``steps``,
the calls of :meth:`Simulator.step`, one more than the entries because
the run ends on an empty-queue call) and the calls of named functions
under the ``repro`` package (``calls``).  Both are as deterministic as
the result, so an added event or helper call per request fails here
while the timing of a replay stays perfbench's job.  Comprehensions,
generator expressions and lambdas are not counted, because CPython 3.12
inlines comprehensions (PEP 709); even so the call count depends on the
interpreter, so it is recorded per CPython minor version and checked
only on a minor that has a recorded count.

Regenerate only for an intended behaviour change::

    PYTHONPATH=src python tests/test_golden_digests.py --write
    PYTHONPATH=src python tests/test_golden_digests.py --write-timelines
    PYTHONPATH=src python tests/test_golden_digests.py --write-work

``--write-work`` keeps the call counts of other CPython minors.
"""

import gc
import hashlib
import json
import os
import sys
from collections import Counter

import pytest

import repro
from repro.chaos import Fault, FaultSchedule, random_schedule
from repro.core.adaptive_ttl import adaptive_ttl
from repro.core.invalidation import invalidation
from repro.core.leases import adaptive_lease, lease_invalidation, two_tier_lease
from repro.core.polling import poll_every_time
from repro.net import Network
from repro.obs import Observation
from repro.replay.experiment import INTERVAL, ExperimentConfig, run_experiment
from repro.replay.serialize import result_to_dict
from repro.sim import RngRegistry, Simulator
from repro.traces import generate_trace, profile
from repro.workload import generate_schedule

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_digests.json")
TIMELINE_PATH = os.path.join(
    os.path.dirname(__file__), "data", "timeline_digests.json"
)
WORK_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_work.json")

#: The key of this interpreter's call counts in the work pins.
MINOR = f"{sys.version_info.major}.{sys.version_info.minor}"
#: Where the counted functions' code lives.
PACKAGE_DIR = os.path.dirname(repro.__file__) + os.sep

#: The protocol families each replayed at two seeds.
SEEDED = (
    adaptive_ttl,
    poll_every_time,
    invalidation,
    lease_invalidation,
    two_tier_lease,
)
PROTOCOLS = {f.__name__: f for f in SEEDED + (adaptive_lease,)}

PROXIES = [f"proxy-{i}" for i in range(4)]

#: Two overlapping warm proxy outages: with ``max_retries=2`` the
#: INVALIDATEs owed to both proxies are abandoned and flushed on contact.
_TWO_PROXY_OUTAGES = FaultSchedule(
    seed=0,
    horizon=1500.0,
    faults=(
        Fault("proxy_crash", 50.0, 400.0, target="proxy-1"),
        Fault("proxy_crash", 60.0, 390.0, target="proxy-2"),
    ),
)

#: A server crash inside a proxy outage: recovery's INVALIDATE-by-server
#: to proxy-1 gives up and is re-sent when proxy-1 next makes contact.
_SERVER_CRASH_IN_PROXY_OUTAGE = FaultSchedule(
    seed=0,
    horizon=1500.0,
    faults=(
        Fault("proxy_crash", 50.0, 400.0, target="proxy-1"),
        Fault("server_crash", 100.0, 150.0, target="server"),
    ),
)

#: One shard down for 300 s: stale serves of its documents are excused
#: only because the tier is not all up.
_SHARD_1_CRASH = FaultSchedule(
    seed=0,
    horizon=1500.0,
    faults=(Fault("shard_crash", 100.0, 400.0, target="shard-1"),),
)

#: A planned drain of shard-2 overlapped by a crash of shard-3: both the
#: drained and the crashed set feed the cluster's routing exclusions.
_SHARD_2_DRAIN_SHARD_3_CRASH = FaultSchedule(
    seed=0,
    horizon=500.0,
    faults=(
        Fault("shard_rebalance", 250.0, 400.0, target="shard-2"),
        Fault("shard_crash", 300.0, 450.0, target="shard-3"),
    ),
)

_GIVE_UP = {"retry_interval": 5.0, "max_retries": 2}


def _cases():
    cases = {}
    for protocol in SEEDED:
        for seed in (11, 42):
            name = protocol.__name__
            cases[f"{name}-seed{seed}"] = (name, {"seed": seed})
    cases["invalidation-audit"] = ("invalidation", {"audit": True})
    cases["lease_invalidation-audit"] = ("lease_invalidation", {"audit": True})
    cases["invalidation-audit-shards4"] = (
        "invalidation",
        {"audit": True, "shards": 4, "batch_max": 32},
    )
    cases["invalidation-audit-shards4-window1"] = (
        "invalidation",
        {"audit": True, "shards": 4, "batch_window": 1.0, "batch_max": 32},
    )
    cases["invalidation-sdsc-sparse-audit"] = (
        "invalidation",
        {"audit": True, "trace": "SDSC", "lifetime_days": 2.5},
    )
    cases["invalidation-hierarchy2"] = ("invalidation", {"hierarchy_parents": 2})
    cases["invalidation-chaos"] = (
        "invalidation",
        {
            "audit": True,
            "fault_schedule": random_schedule(
                5, horizon=1500.0, proxies=PROXIES, max_faults=4, min_faults=3
            ),
        },
    )
    cases["invalidation-observed"] = ("invalidation", {"observation": "plain"})
    cases["invalidation-observed-deep"] = ("invalidation", {"observation": "deep"})
    cases["invalidation-decoupled-audit"] = (
        "invalidation",
        {"audit": True, "protocol_kwargs": {"blocking": False}},
    )
    cases["invalidation-multicast-audit"] = (
        "invalidation",
        {"audit": True, "protocol_kwargs": {"multicast": True}},
    )
    cases["invalidation-giveup"] = (
        "invalidation",
        {"audit": True, "protocol_kwargs": _GIVE_UP,
         "fault_schedule": _TWO_PROXY_OUTAGES},
    )
    cases["invalidation-giveup-shards4"] = (
        "invalidation",
        {"audit": True, "protocol_kwargs": _GIVE_UP,
         "fault_schedule": _TWO_PROXY_OUTAGES, "shards": 4, "batch_max": 32},
    )
    cases["invalidation-audit-shards4-shardcrash"] = (
        "invalidation",
        {"audit": True, "scale": 0.05, "lifetime_days": 0.5, "shards": 4,
         "batch_window": 1.0, "batch_max": 32,
         "fault_schedule": _SHARD_1_CRASH},
    )
    cases["invalidation-audit-shards4-rebalance"] = (
        "invalidation",
        {"audit": True, "shards": 4, "batch_max": 32,
         "fault_schedule": _SHARD_2_DRAIN_SHARD_3_CRASH},
    )
    cases["adaptive_lease-1k-audit"] = (
        "adaptive_lease",
        {"audit": True, "protocol_kwargs": {"state_budget_bytes": 1024}},
    )
    cases["invalidation-recovery-giveup"] = (
        "invalidation",
        {"audit": True, "protocol_kwargs": _GIVE_UP,
         "fault_schedule": _SERVER_CRASH_IN_PROXY_OUTAGE},
    )
    return cases


CASES = _cases()


def _abandoned(result) -> int:
    return result.chaos["network"]["invalidations_abandoned"]


def _recovered_server(result) -> bool:
    return any(e["kind"] == "server-recover" for e in result.chaos["fault_log"])


#: Per-case check that the run took the path the case exists to pin.
REACHES = {
    "invalidation-decoupled-audit": lambda r: r.invalidations_sent > 0,
    "invalidation-multicast-audit": lambda r: (
        r.protocol == "invalidation-multicast" and r.invalidations_sent > 0
    ),
    "invalidation-audit-shards4-window1": lambda r: (
        r.cluster["batches_delivered"] > 0
    ),
    "invalidation-giveup": lambda r: _abandoned(r) > 0,
    "invalidation-giveup-shards4": lambda r: (
        _abandoned(r) > 0 and r.cluster["batches_delivered"] > 0
    ),
    "invalidation-recovery-giveup": lambda r: (
        _abandoned(r) > 0 and _recovered_server(r)
    ),
    "invalidation-audit-shards4-shardcrash": lambda r: (
        r.chaos["allowed_staleness"].get("origin-down", 0) > 0
    ),
    "invalidation-audit-shards4-rebalance": lambda r: (
        r.cluster["rebalances"] > 0 and r.cluster["handoffs"] > 0
    ),
    # At the default 64 KB budget the case makes no IMS at all.
    "adaptive_lease-1k-audit": lambda r: r.ims > 0,
}

_TRACES = {}


def _trace(name="EPA", scale=0.02):
    if (name, scale) not in _TRACES:
        _TRACES[name, scale] = generate_trace(
            profile(name).scaled(scale), RngRegistry(seed=3)
        )
    return _TRACES[name, scale]


def case_config(case: str) -> ExperimentConfig:
    """The :class:`ExperimentConfig` one case replays."""
    protocol, overrides = CASES[case]
    overrides = dict(overrides)
    observation = overrides.pop("observation", None)
    if observation is not None:
        observation = Observation(deep=observation == "deep")
    return ExperimentConfig(
        trace=_trace(overrides.pop("trace", "EPA"), overrides.pop("scale", 0.02)),
        protocol=PROTOCOLS[protocol](**overrides.pop("protocol_kwargs", {})),
        mean_lifetime=overrides.pop("lifetime_days", 7) * 86400.0,
        seed=overrides.pop("seed", 11),
        observation=observation,
        **overrides,
    )


def run_case(case: str):
    """Replay one case and return its :class:`ExperimentResult`."""
    config = case_config(case)
    result = run_experiment(config)
    if config.observation is not None:
        config.observation.close()
    return result


def digest(result) -> str:
    """SHA-256 of a serialized result (wall-clock fields removed)."""
    data = result_to_dict(result)
    data.pop("wall_seconds", None)
    data.pop("timestamp", None)
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def timeline_digest(case: str) -> str:
    """SHA-256 of every message one replay of ``case`` sends, in order."""
    sends = []
    send = Network.send

    def recording_send(network, message, *args, **kwargs):
        sends.append(
            f"{network.sim.now!r} {type(message).__name__} {message.category} "
            f"{message.src} {message.dst} {message.size}\n"
        )
        return send(network, message, *args, **kwargs)

    Network.send = recording_send
    try:
        run_case(case)
    finally:
        Network.send = send
    return hashlib.sha256("".join(sends).encode()).hexdigest()


def work(case: str) -> dict:
    """The ``requests``, ``steps`` and ``calls`` of one replay of ``case``.

    The case is replayed once uncounted first, so process-wide caches
    (such as the hash ring's virtual-node points) are as warm as they
    are after any other replay, and the counts do not depend on what ran
    before in the process.
    """
    run_case(case)
    seen = Counter()

    def count(frame, event, arg):
        if event == "call":
            seen[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = run_case(case)
    finally:
        sys.setprofile(previous)
    return {
        "requests": result.total_requests,
        "steps": seen[Simulator.step.__code__],
        "calls": sum(
            count
            for code, count in seen.items()
            if code.co_filename.startswith(PACKAGE_DIR)
            and not code.co_name.startswith("<")
        ),
    }


def _golden(path=GOLDEN_PATH):
    with open(path) as handle:
        return json.load(handle)


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)
    assert sorted(_golden(TIMELINE_PATH)) == sorted(CASES)
    assert sorted(_golden(WORK_PATH)) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_digest_matches_golden(case):
    result = run_case(case)
    if case in REACHES:
        assert REACHES[case](result), f"{case} did not reach its path"
    assert digest(result) == _golden()[case]


def test_sparse_case_has_a_modification_only_interval():
    """Some interval of the sparse case holds a modification and no request."""
    config = case_config("invalidation-sdsc-sparse-audit")
    trace = config.trace
    schedule = generate_schedule(
        sorted(trace.documents),
        duration=trace.duration,
        mean_lifetime_seconds=config.mean_lifetime,
        rng=RngRegistry(config.seed).stream("modifications"),
    )
    requested = {int(r.timestamp // INTERVAL) for r in trace.records}
    modified = {int(m.time // INTERVAL) for m in schedule}
    assert modified - requested


def test_owner_breakdown_adds_up_and_moves_no_result():
    config = case_config("invalidation-observed-deep")
    result = run_experiment(config)
    config.observation.close()
    tracer = config.observation.tracer
    assert sum(tracer.owners.values()) == tracer.total > 0
    assert tracer.owners["Resource._end_use"] > 0
    assert digest(result) == _golden()["invalidation-observed-deep"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_timeline_matches_golden(case):
    assert timeline_digest(case) == _golden(TIMELINE_PATH)[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_leaves_no_cycles(case):
    """Reference counting alone frees a finished replay's whole world.

    With the cyclic collector off, a replay must leave nothing for it to
    collect.  Every object alive before the replay is kept alive in
    ``before``, so the count is of cycles the replay created, not of
    garbage the interpreter or the test runner makes of its own.
    """
    overrides = CASES[case][1]
    _trace(overrides.get("trace", "EPA"), overrides.get("scale", 0.02))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        before = gc.get_objects()
        gc.set_debug(gc.DEBUG_SAVEALL)
        run_case(case)
        found = gc.collect()
        kinds = Counter(type(o).__qualname__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        before = None
        if enabled:
            gc.enable()
    assert found == 0, f"{found} objects left in cycles: {kinds.most_common(8)}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_work_matches_golden(case):
    expected = _golden(WORK_PATH)[case]
    counted = work(case)
    assert (counted["requests"], counted["steps"]) == (
        expected["requests"],
        expected["steps"],
    )
    calls = expected["calls"].get(MINOR)
    if calls is None:
        pytest.skip(f"no call count recorded for CPython {MINOR}")
    assert counted["calls"] == calls


def _work_pin(case: str) -> dict:
    """``case``'s work pin, keeping the other minors' recorded calls."""
    counted = work(case)
    try:
        calls = _golden(WORK_PATH)[case]["calls"]
    except (OSError, KeyError):
        calls = {}
    calls[MINOR] = counted["calls"]
    return dict(counted, calls=calls)


if __name__ == "__main__":
    writers = {
        "--write": (GOLDEN_PATH, lambda case: digest(run_case(case))),
        "--write-timelines": (TIMELINE_PATH, timeline_digest),
        "--write-work": (WORK_PATH, _work_pin),
    }
    if len(sys.argv) != 2 or sys.argv[1] not in writers:
        sys.exit(
            "usage: python tests/test_golden_digests.py "
            "--write|--write-timelines|--write-work"
        )
    path, make = writers[sys.argv[1]]
    pins = {case: make(case) for case in sorted(CASES)}
    with open(path, "w") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(CASES)} pins to {path}")
