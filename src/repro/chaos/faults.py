"""Seeded, serializable fault schedules.

A :class:`FaultSchedule` is plain data: a list of :class:`Fault` records
(kind, window, target, parameters), a seed, and the horizon it was
sampled against.  Everything round-trips through JSON, so a violating
schedule can be archived, shipped in a bug report, and replayed
bit-identically — including its probabilistic link faults, whose per-fault
RNG seed travels in the fault's parameters rather than deriving from
global state.

Fault kinds:

``proxy_crash``
    A proxy host dies at ``at`` and restarts at ``until``; ``cold=True``
    wipes the cache on restart, otherwise the surviving entries come back
    marked questionable (Section 4).
``server_crash``
    The server site dies and recovers with the INVALIDATE-by-server
    fan-out; ``lose_sitelog=True`` additionally destroys the persistent
    known-sites log, forcing recovery via the operator's proxy roster.
``partition``
    ``group_a`` and ``group_b`` cannot exchange messages during the
    window; reliable channels retry across it.
``link_fault``
    Probabilistic loss/duplication plus latency spike/jitter on one
    directed link (``"*"`` wildcards allowed).
``clock_skew``
    A proxy host's clock runs ``skew`` seconds off during the window
    (negative = behind, the direction lease expiry must tolerate).
``shard_crash``
    One accelerator shard of a sharded cluster (``shards > 1``) dies and
    recovers with the INVALIDATE-by-server fan-out plus a site-list
    handoff back from its failover shards; ``lose_sitelog=True`` also
    destroys that shard's persistent known-sites log.
``shard_rebalance``
    A planned drain: the shard's ring segment (and its site lists) move
    to the other shards at ``at`` and move back at ``until`` — no crash,
    no lost state, just live ownership churn.

The shard kinds are only sampled when :func:`random_schedule` is given a
``shards`` sequence; without it the sampling stream is bit-identical to
the pre-cluster harness, so archived schedule seeds replay unchanged.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from ..net import LinkFault

__all__ = [
    "Fault",
    "FaultSchedule",
    "FAULT_KINDS",
    "MAX_CLOCK_SKEW",
    "random_schedule",
    "apply_schedule",
]

FAULT_KINDS = (
    "proxy_crash",
    "server_crash",
    "partition",
    "link_fault",
    "clock_skew",
    "shard_crash",
    "shard_rebalance",
)

#: Bound on sampled clock skew, seconds.  Campaigns configure the lease
#: grace above this so skewed-but-bounded clocks stay inside the strong
#: guarantee (unbounded skew is unrecoverable for any lease scheme).
MAX_CLOCK_SKEW = 30.0

#: Relative sampling weights per fault kind (link faults are the most
#: interaction-rich, so they are drawn most often).  The shard kinds are
#: appended only when a cluster is present — keeping this base dict (and
#: its order) untouched preserves the RNG stream of shard-less
#: schedules, so archived seeds replay bit-identically.
_KIND_WEIGHTS = {
    "proxy_crash": 2.0,
    "server_crash": 1.5,
    "partition": 2.0,
    "link_fault": 3.0,
    "clock_skew": 1.5,
}

#: Extra weights appended when sampling against a sharded cluster.
_SHARD_KIND_WEIGHTS = {
    "shard_crash": 2.0,
    "shard_rebalance": 1.5,
}


@dataclass(frozen=True)
class Fault:
    """One fault: a kind, an active window, a target, and parameters."""

    kind: str
    at: float
    until: float
    target: str = ""
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not (math.isfinite(self.at) and math.isfinite(self.until)):
            raise ValueError(f"fault window [{self.at}, {self.until}] must be finite")
        for name, value in self.params.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"fault parameter {name}={value} must be finite")
        if self.until <= self.at:
            raise ValueError(f"fault window [{self.at}, {self.until}] is empty")
        if self.at < 0:
            raise ValueError("fault cannot start before the run")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "at": self.at,
            "until": self.until,
            "target": self.target,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Fault":
        """Rebuild a fault from its :meth:`to_dict` form."""
        return cls(
            kind=data["kind"],
            at=float(data["at"]),
            until=float(data["until"]),
            target=data.get("target", ""),
            params=dict(data.get("params", {})),
        )

    def describe(self) -> str:
        """One-line human summary for reports."""
        extra = ""
        if self.params:
            extra = " " + ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return (
            f"{self.kind}[{self.at:.1f}s..{self.until:.1f}s]"
            f" {self.target}{extra}"
        )


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered collection of faults, sampled from one seed."""

    seed: int
    horizon: float
    faults: Tuple[Fault, ...] = ()

    def __len__(self) -> int:
        return len(self.faults)

    def without(self, index: int) -> "FaultSchedule":
        """A copy with fault ``index`` removed (the shrinking step)."""
        faults = self.faults[:index] + self.faults[index + 1:]
        return FaultSchedule(seed=self.seed, horizon=self.horizon, faults=faults)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (inverse of :meth:`from_dict`)."""
        return {
            "seed": self.seed,
            "horizon": self.horizon,
            "faults": [f.to_dict() for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSchedule":
        """Rebuild a schedule from its :meth:`to_dict` form."""
        return cls(
            seed=int(data["seed"]),
            horizon=float(data["horizon"]),
            faults=tuple(Fault.from_dict(f) for f in data.get("faults", [])),
        )

    def to_json(self) -> str:
        """Canonical JSON encoding (sorted keys, reproducer-friendly)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Parse a schedule from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def describe(self) -> List[str]:
        """One human-readable line per fault, in schedule order."""
        return [f.describe() for f in self.faults]


def _sample_fault(
    rng: random.Random,
    horizon: float,
    proxies: Sequence[str],
    shards: Sequence[str] = (),
) -> Fault:
    weights = dict(_KIND_WEIGHTS)
    if shards:
        weights.update(_SHARD_KIND_WEIGHTS)
    kinds = list(weights)
    kind = rng.choices(kinds, weights=[weights[k] for k in kinds])[0]
    # Start inside the first 60% of the run, heal by 95% of it: every
    # fault leaves room for the recovery machinery to finish inside the
    # horizon, so retry loops always terminate.
    at = rng.uniform(0.05, 0.60) * horizon
    until = min(at + rng.uniform(0.05, 0.30) * horizon, 0.95 * horizon)
    if until <= at:
        until = at + 0.01 * horizon

    if kind == "proxy_crash":
        return Fault(
            kind, at, until,
            target=rng.choice(list(proxies)),
            params={"cold": rng.random() < 0.3},
        )
    if kind == "server_crash":
        return Fault(
            kind, at, until,
            target="server",
            params={"lose_sitelog": rng.random() < 0.3},
        )
    if kind == "partition":
        cut = rng.sample(list(proxies), rng.randint(1, len(proxies)))
        return Fault(
            kind, at, until,
            target="|".join(sorted(cut)),
            params={"group_a": ["server"], "group_b": sorted(cut)},
        )
    if kind == "link_fault":
        proxy = rng.choice(list(proxies))
        src, dst = rng.choice(
            [("server", proxy), (proxy, "server"), ("server", "*"), ("*", "server")]
        )
        return Fault(
            kind, at, until,
            target=f"{src}->{dst}",
            params={
                "src": src,
                "dst": dst,
                "drop_prob": round(rng.uniform(0.1, 0.9), 3),
                "dup_prob": round(rng.uniform(0.0, 0.5), 3),
                "extra_delay": round(rng.uniform(0.0, 1.0), 3),
                "jitter": round(rng.uniform(0.0, 0.5), 3),
                "rng_seed": rng.randrange(2**32),
            },
        )
    if kind == "shard_crash":
        return Fault(
            kind, at, until,
            target=rng.choice(list(shards)),
            params={"lose_sitelog": rng.random() < 0.3},
        )
    if kind == "shard_rebalance":
        return Fault(kind, at, until, target=rng.choice(list(shards)))
    # clock_skew
    return Fault(
        kind, at, until,
        target=rng.choice(list(proxies)),
        params={"skew": round(rng.uniform(-MAX_CLOCK_SKEW, MAX_CLOCK_SKEW), 3)},
    )


def random_schedule(
    seed: int,
    horizon: float,
    proxies: Sequence[str],
    max_faults: int = 5,
    min_faults: int = 1,
    shards: Sequence[str] = (),
) -> FaultSchedule:
    """Sample a schedule of 1..``max_faults`` faults over ``horizon``.

    Deterministic in ``seed``: the same seed, horizon, proxy list and
    shard list always produce the identical schedule, in any process.
    With an empty ``shards`` (the default) the sampling is bit-identical
    to the pre-cluster harness; passing shard addresses adds
    ``shard_crash`` / ``shard_rebalance`` to the draw.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not proxies:
        raise ValueError("need at least one proxy to fault")
    if not 1 <= min_faults <= max_faults:
        raise ValueError("need 1 <= min_faults <= max_faults")
    rng = random.Random(seed)
    count = rng.randint(min_faults, max_faults)
    faults = tuple(
        sorted(
            (_sample_fault(rng, horizon, proxies, shards) for _ in range(count)),
            key=lambda f: (f.at, f.kind, f.target),
        )
    )
    return FaultSchedule(seed=seed, horizon=horizon, faults=faults)


def _origin_side(group: Sequence[str], cluster) -> List[str]:
    """``group`` with ``server`` widened to every shard of ``cluster``."""
    expanded = []
    for address in group:
        expanded.append(address)
        if cluster is not None and address == "server":
            expanded.extend(s.address for s in cluster.shards)
    return expanded


def _start_and_end(fault: Fault, network, server, proxies, cluster):
    """The ``(start, end)`` action pairs that realise ``fault``.

    Each action performs its half of the fault and returns the
    ``(kind, target)`` it logs.  Most faults are one pair; a partition
    or link fault against a sharded origin is one pair per widened
    endpoint.
    """
    kind, params = fault.kind, fault.params
    if kind.startswith("shard_") and cluster is None:
        raise ValueError(
            f"schedule contains {kind} but the run has no "
            "accelerator cluster (shards=1)"
        )

    if kind == "proxy_crash":
        # Warm restarts keep the on-disk cache and mark every entry
        # questionable (Section 4); cold ones wipe it.
        proxy = proxies[fault.target]
        cold = bool(params.get("cold", False))

        def crash():
            proxy.crash()
            return "proxy-crash", proxy.address

        def recover():
            flagged = proxy.recover(cold=cold)
            label = (
                "proxy-recover(cold)" if cold
                else f"proxy-recover({flagged} questionable)"
            )
            return label, proxy.address

        return [(crash, recover)]

    if kind == "server_crash":
        # Recovery sends INVALIDATE-by-server to every known site, or to
        # the operator's proxy roster when the site log was lost too.
        lose_sitelog = bool(params.get("lose_sitelog", False))

        def crash():
            server.crash(lose_sitelog=lose_sitelog)
            label = "server-crash(sitelog lost)" if lose_sitelog else "server-crash"
            return label, server.address

        def recover():
            server.recover()
            return "server-recover", server.address

        return [(crash, recover)]

    if kind == "partition":
        # Each partition heals by its own handle, so overlapping
        # partitions heal independently.
        group_a = _origin_side(params["group_a"], cluster)
        group_b = _origin_side(params["group_b"], cluster)
        target = f"{group_a}|{group_b}"
        handle: List[int] = []

        def cut():
            handle.append(network.partition(group_a, group_b))
            return "partition", target

        def heal():
            network.heal(handle[0] if handle else None)
            return "heal", target

        return [(cut, heal)]

    if kind == "link_fault":
        drop = float(params.get("drop_prob", 0.0))
        dup = float(params.get("dup_prob", 0.0))
        delay = float(params.get("extra_delay", 0.0))
        jitter = float(params.get("jitter", 0.0))
        link = LinkFault(
            drop_prob=drop, dup_prob=dup, extra_delay=delay, jitter=jitter
        )
        label = f"link-fault(drop={drop},dup={dup},delay={delay},jitter={jitter})"
        seed = int(params.get("rng_seed", 0))
        endpoints = [
            (src, dst)
            for src in _origin_side([params["src"]], cluster)
            for dst in _origin_side([params["dst"]], cluster)
        ]
        pairs = []
        for offset, (src, dst) in enumerate(endpoints):
            rng = random.Random(seed + offset)

            def install(src=src, dst=dst, rng=rng):
                network.set_link_fault(src, dst, link, rng=rng)
                return label, f"{src}->{dst}"

            def clear(src=src, dst=dst):
                network.clear_link_fault(src, dst)
                return "link-heal", f"{src}->{dst}"

            pairs.append((install, clear))
        return pairs

    if kind == "clock_skew":
        # Negative skew runs the host's clock behind: the direction
        # lease expiry must tolerate through ``lease_grace``.
        proxy = proxies[fault.target]
        skew = float(params["skew"])

        def apply():
            proxy.clock_skew = skew
            return f"clock-skew({skew:+g}s)", proxy.address

        def reset():
            proxy.clock_skew = 0.0
            return "clock-skew(reset)", proxy.address

        return [(apply, reset)]

    shard = fault.target
    if kind == "shard_crash":
        # While down, the ring routes the shard's documents to its
        # successor; recovery hands those site-list entries back.
        lose_sitelog = bool(params.get("lose_sitelog", False))

        def crash():
            cluster.crash_shard(shard, lose_sitelog=lose_sitelog)
            label = "shard-crash(sitelog lost)" if lose_sitelog else "shard-crash"
            return label, shard

        def recover():
            cluster.recover_shard(shard)
            return "shard-recover", shard

        return [(crash, recover)]

    # shard_rebalance: a drained shard stays up but takes no new routes.
    def drain():
        cluster.drain_shard(shard)
        return "shard-drain", shard

    def restore():
        cluster.restore_shard(shard)
        return "shard-restore", shard

    return [(drain, restore)]


def apply_schedule(
    faults: Iterable[Fault], sim, network, server, proxies, cluster=None
) -> List[Dict[str, Any]]:
    """Arm every fault in ``faults`` against a built testbed.

    Each fault's start fires at ``fault.at`` and its end at
    ``fault.until``, on ``sim``'s clock; a fault whose window has
    already begun starts at once.

    Args:
        sim: the :class:`repro.sim.Simulator` the testbed runs on.
        network: the testbed's :class:`repro.net.Network`.
        server: the :class:`repro.server.ServerSite` (or the
            :class:`repro.server.AcceleratorCluster` facade).
        proxies: ``{address: ProxyCache}`` for the leaf proxies.
        cluster: the :class:`repro.server.AcceleratorCluster` when the
            run is sharded; required for ``shard_*`` faults.  Partitions
            and link faults naming ``server`` are widened to cover the
            shard addresses too, so the "server side of the cut" keeps
            meaning the whole origin tier.

    Returns:
        The fault log: one ``{"time", "kind", "target"}`` dict per start
        or end, appended as each fires.
    """
    log: List[Dict[str, Any]] = []

    def arm(when: float, action) -> None:
        def fire() -> None:
            kind, target = action()
            log.append({"time": sim.now, "kind": kind, "target": target})

        sim.call_later(when - sim.now, fire)

    for fault in faults:
        for start, end in _start_and_end(fault, network, server, proxies, cluster):
            arm(fault.at, start)
            arm(fault.until, end)
    return log
