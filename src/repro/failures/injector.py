"""Failure injection for the Section 4 failure scenarios.

Three scenarios, each with a scheduled injection and recovery:

1. **Proxy failure** — the proxy misses invalidations while down; on
   recovery it marks all cache entries questionable.
2. **Server-site failure** — accelerator + HTTPD die together; volatile
   site lists are lost; on recovery the persistent known-sites log drives
   INVALIDATE-by-server messages to every proxy ever seen.
3. **Network partition** — invalidations cannot cross the cut; the
   reliable channel retries periodically until the partition heals.

The chaos harness (:mod:`repro.chaos`) extends the model past Section 4:
cold proxy restarts (cache wiped), server crashes that destroy the
persistent site log, probabilistic per-link loss/duplication/latency
faults, and clock skew on a proxy host's lease/TTL arithmetic.

:class:`FailureInjector` schedules these against a running simulation; it
is deliberately independent of the replay harness so both unit tests and
full experiments can use it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..net import LinkFault, Network
from ..proxy import ProxyCache
from ..server import ServerSite
from ..sim import Simulator

__all__ = ["FailureEvent", "FailureInjector"]


@dataclass(frozen=True)
class FailureEvent:
    """A recorded injection or recovery, for assertions and reports."""

    time: float
    kind: str
    target: str


@dataclass
class FailureInjector:
    """Schedules crashes, recoveries and partitions."""

    sim: Simulator
    network: Network
    log: List[FailureEvent] = field(default_factory=list)

    def _record(self, kind: str, target: str) -> None:
        self.log.append(FailureEvent(time=self.sim.now, kind=kind, target=target))

    # -- proxy ---------------------------------------------------------------

    def schedule_proxy_crash(
        self, proxy: ProxyCache, at: float, recover_at: float, cold: bool = False
    ) -> None:
        """Crash a proxy at ``at`` and recover it at ``recover_at``.

        A warm restart (default) keeps the on-disk cache and marks every
        entry questionable; ``cold=True`` wipes the cache instead.
        """
        if recover_at <= at:
            raise ValueError("recovery must follow the crash")

        def crash() -> None:
            proxy.crash()
            self._record("proxy-crash", proxy.address)

        def recover() -> None:
            flagged = proxy.recover(cold=cold)
            kind = (
                "proxy-recover(cold)"
                if cold
                else f"proxy-recover({flagged} questionable)"
            )
            self._record(kind, proxy.address)

        self.sim.call_later(at - self.sim.now, crash)
        self.sim.call_later(recover_at - self.sim.now, recover)

    # -- server site -----------------------------------------------------------

    def schedule_server_crash(
        self,
        server: ServerSite,
        at: float,
        recover_at: float,
        lose_sitelog: bool = False,
    ) -> None:
        """Crash the server site at ``at``; recover (with the
        INVALIDATE-by-server fan-out) at ``recover_at``.

        ``lose_sitelog=True`` destroys the persistent known-sites log as
        well; recovery then broadcasts to the server's ``proxy_roster``.
        """
        if recover_at <= at:
            raise ValueError("recovery must follow the crash")

        def crash() -> None:
            server.crash(lose_sitelog=lose_sitelog)
            kind = "server-crash(sitelog lost)" if lose_sitelog else "server-crash"
            self._record(kind, server.address)

        def recover() -> None:
            server.recover()
            self._record("server-recover", server.address)

        self.sim.call_later(at - self.sim.now, crash)
        self.sim.call_later(recover_at - self.sim.now, recover)

    # -- accelerator shards ---------------------------------------------------

    def schedule_shard_crash(
        self,
        cluster,
        shard: str,
        at: float,
        recover_at: float,
        lose_sitelog: bool = False,
    ) -> None:
        """Crash one accelerator shard at ``at``; recover it at
        ``recover_at``.

        While the shard is down the cluster's hash ring routes its
        documents to the clockwise successor; on recovery the ring
        rebalances and site-list entries registered at failover shards
        hand back to the recovered owner.
        """
        if recover_at <= at:
            raise ValueError("recovery must follow the crash")

        def crash() -> None:
            cluster.crash_shard(shard, lose_sitelog=lose_sitelog)
            kind = "shard-crash(sitelog lost)" if lose_sitelog else "shard-crash"
            self._record(kind, shard)

        def recover() -> None:
            cluster.recover_shard(shard)
            self._record("shard-recover", shard)

        self.sim.call_later(at - self.sim.now, crash)
        self.sim.call_later(recover_at - self.sim.now, recover)

    def schedule_shard_rebalance(
        self, cluster, shard: str, at: float, until: float
    ) -> None:
        """Drain a shard out of the hash ring from ``at`` to ``until``.

        A drained shard stays up (it can still flush dirty state and
        answer in-flight work) but receives no new routes; restoring it
        triggers a rebalance that migrates site lists back.
        """
        if until <= at:
            raise ValueError("drain window must end after it starts")

        def drain() -> None:
            cluster.drain_shard(shard)
            self._record("shard-drain", shard)

        def restore() -> None:
            cluster.restore_shard(shard)
            self._record("shard-restore", shard)

        self.sim.call_later(at - self.sim.now, drain)
        self.sim.call_later(until - self.sim.now, restore)

    # -- partition ----------------------------------------------------------

    def schedule_partition(
        self,
        group_a: Iterable[str],
        group_b: Iterable[str],
        at: float,
        heal_at: float,
    ) -> None:
        """Partition two groups at ``at``; heal *that* partition at
        ``heal_at`` (overlapping partitions heal independently)."""
        if heal_at <= at:
            raise ValueError("heal must follow the partition")
        group_a, group_b = list(group_a), list(group_b)
        handle: List[int] = []

        def cut() -> None:
            handle.append(self.network.partition(group_a, group_b))
            self._record("partition", f"{group_a}|{group_b}")

        def heal() -> None:
            self.network.heal(handle[0] if handle else None)
            self._record("heal", f"{group_a}|{group_b}")

        self.sim.call_later(at - self.sim.now, cut)
        self.sim.call_later(heal_at - self.sim.now, heal)

    # -- link faults ---------------------------------------------------------

    def schedule_link_fault(
        self,
        src: str,
        dst: str,
        at: float,
        until: float,
        drop_prob: float = 0.0,
        dup_prob: float = 0.0,
        extra_delay: float = 0.0,
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Degrade the directed ``src -> dst`` link from ``at`` to ``until``.

        ``"*"`` on either side matches any address.  Probabilistic loss,
        duplication and latency perturbation are all seeded through
        ``rng`` so schedules replay deterministically.
        """
        if until <= at:
            raise ValueError("fault must end after it starts")
        fault = LinkFault(
            drop_prob=drop_prob,
            dup_prob=dup_prob,
            extra_delay=extra_delay,
            jitter=jitter,
        )

        def install() -> None:
            self.network.set_link_fault(src, dst, fault, rng=rng)
            self._record(
                "link-fault"
                f"(drop={drop_prob},dup={dup_prob},"
                f"delay={extra_delay},jitter={jitter})",
                f"{src}->{dst}",
            )

        def clear() -> None:
            self.network.clear_link_fault(src, dst)
            self._record("link-heal", f"{src}->{dst}")

        self.sim.call_later(at - self.sim.now, install)
        self.sim.call_later(until - self.sim.now, clear)

    # -- clock skew ----------------------------------------------------------

    def schedule_clock_skew(
        self, proxy: ProxyCache, at: float, until: float, skew: float
    ) -> None:
        """Skew a proxy host's clock by ``skew`` seconds over a window.

        Positive skew makes the host's clock run *ahead* (leases/TTLs
        expire early there — safe); negative skew runs it behind (the
        dangerous direction leases must tolerate via ``lease_grace``).
        """
        if until <= at:
            raise ValueError("skew window must end after it starts")

        def apply() -> None:
            proxy.clock_skew = skew
            self._record(f"clock-skew({skew:+g}s)", proxy.address)

        def reset() -> None:
            proxy.clock_skew = 0.0
            self._record("clock-skew(reset)", proxy.address)

        self.sim.call_later(at - self.sim.now, apply)
        self.sim.call_later(until - self.sim.now, reset)
