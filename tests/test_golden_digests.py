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

``invalidation-audit-shards4-window1`` is the one case whose batch
buffers flush on the ``batch_window`` timer rather than on ``batch_max``
fill.  It was recorded while batching still lived in a separate shard
class; none of its site-list entries is registered while an INVALIDATE
for it is in flight, so neither folding batching into ``ServerSite`` nor
the registered-at rule for clearing entries may move it.

Regenerate only for an intended behaviour change::

    PYTHONPATH=src python tests/test_golden_digests.py --write
    PYTHONPATH=src python tests/test_golden_digests.py --write-timelines
"""

import hashlib
import json
import os
import sys

import pytest

from repro.chaos import Fault, FaultSchedule, random_schedule
from repro.core.adaptive_ttl import adaptive_ttl
from repro.core.invalidation import invalidation
from repro.core.leases import lease_invalidation, two_tier_lease
from repro.core.polling import poll_every_time
from repro.net import Network
from repro.obs import Observation
from repro.replay.experiment import ExperimentConfig, run_experiment
from repro.replay.serialize import result_to_dict
from repro.sim import EventTracer, RngRegistry, tracing
from repro.traces import generate_trace, profile

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_digests.json")
TIMELINE_PATH = os.path.join(
    os.path.dirname(__file__), "data", "timeline_digests.json"
)

PROTOCOLS = {
    f.__name__: f
    for f in (
        adaptive_ttl,
        poll_every_time,
        invalidation,
        lease_invalidation,
        two_tier_lease,
    )
}

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

_GIVE_UP = {"retry_interval": 5.0, "max_retries": 2}


def _cases():
    cases = {}
    for name in PROTOCOLS:
        for seed in (11, 42):
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
}

_TRACE = []


def _trace():
    if not _TRACE:
        _TRACE.append(
            generate_trace(profile("EPA").scaled(0.02), RngRegistry(seed=3))
        )
    return _TRACE[0]


def run_case(case: str):
    """Replay one case and return its :class:`ExperimentResult`."""
    protocol, overrides = CASES[case]
    overrides = dict(overrides)
    observation = overrides.pop("observation", None)
    if observation is not None:
        observation = Observation(deep=observation == "deep")
    config = ExperimentConfig(
        trace=_trace(),
        protocol=PROTOCOLS[protocol](**overrides.pop("protocol_kwargs", {})),
        mean_lifetime=7 * 86400.0,
        seed=overrides.pop("seed", 11),
        observation=observation,
        **overrides,
    )
    result = run_experiment(config)
    if observation is not None:
        observation.close()
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

    def recording_send(network, message, wait=True):
        sends.append(
            f"{network.sim.now!r} {type(message).__name__} {message.category} "
            f"{message.src} {message.dst} {message.size}\n"
        )
        return send(network, message, wait)

    Network.send = recording_send
    try:
        run_case(case)
    finally:
        Network.send = send
    return hashlib.sha256("".join(sends).encode()).hexdigest()


def _golden(path=GOLDEN_PATH):
    with open(path) as handle:
        return json.load(handle)


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)
    assert sorted(_golden(TIMELINE_PATH)) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_digest_matches_golden(case):
    result = run_case(case)
    if case in REACHES:
        assert REACHES[case](result), f"{case} did not reach its path"
    assert digest(result) == _golden()[case]


def test_owner_breakdown_adds_up_and_moves_no_result(monkeypatch):
    tracers = []

    def owner_tracer(sim, keep_last=0):
        tracers.append(EventTracer(sim, keep_last=keep_last, owners=True))
        return tracers[-1]

    monkeypatch.setattr(tracing, "EventTracer", owner_tracer)
    result = run_case("invalidation-observed-deep")
    (tracer,) = tracers
    assert sum(tracer.owners.values()) == tracer.total > 0
    assert tracer.owners["ServerSite._done"] > 0
    assert digest(result) == _golden()["invalidation-observed-deep"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_timeline_matches_golden(case):
    assert timeline_digest(case) == _golden(TIMELINE_PATH)[case]


if __name__ == "__main__":
    writers = {
        "--write": (GOLDEN_PATH, lambda case: digest(run_case(case))),
        "--write-timelines": (TIMELINE_PATH, timeline_digest),
    }
    if len(sys.argv) != 2 or sys.argv[1] not in writers:
        sys.exit(
            "usage: python tests/test_golden_digests.py --write|--write-timelines"
        )
    path, make = writers[sys.argv[1]]
    with open(path, "w") as handle:
        json.dump({case: make(case) for case in sorted(CASES)}, handle,
                  indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(CASES)} digests to {path}")
