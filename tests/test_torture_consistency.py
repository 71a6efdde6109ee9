"""Randomized failure torture: consistency must survive arbitrary churn.

Drives a server + two proxies with a random interleaving of client
requests, document modifications, proxy crashes/recoveries, server
crashes/recoveries and network partitions/heals — then checks the
paper's guarantee end-to-end:

* **no violation, ever**: the :class:`ConsistencyAuditor` riding both
  proxies excuses every stale serve by an invalidation still owed (a
  copy served after its own invalidation was delivered is owed nothing);
* **quiescent convergence**: once everything is healed and every copy
  has been re-requested, every client sees the current version.

Failures may abort individual requests (connection refused / reply
timeout); that is permitted — weak liveness under churn, strong safety
always.
"""

import random

import pytest

from repro.chaos import ConsistencyAuditor
from repro.core import invalidation, two_tier_lease
from repro.net import FixedLatency, Network
from repro.proxy import Cache, ProxyCache
from repro.server import FileStore, ServerSite
from repro.sim import Simulator

DOCS = {f"/d{i}": 500 + 100 * i for i in range(6)}
CLIENTS = ["c0", "c1", "c2", "c3"]


class Torture:
    def __init__(self, seed: int, protocol):
        self.rng = random.Random(seed)
        self.sim = Simulator()
        self.net = Network(
            self.sim, latency=FixedLatency(0.002), connect_timeout=0.3
        )
        self.fs = FileStore.from_catalog(dict(DOCS))
        self.server = ServerSite(
            self.sim, self.net, "server", self.fs, accel=protocol.accelerator
        )
        self.proxies = [
            ProxyCache(
                self.sim,
                self.net,
                f"proxy-{i}",
                "server",
                policy=protocol.client_policy,
                cache=Cache(),
                oracle=lambda url: self.fs.get(url).last_modified,
                reply_timeout=2.0,
            )
            for i in range(2)
        ]
        self.auditor = ConsistencyAuditor([self.server], strong=True)
        for proxy in self.proxies:
            proxy.observer = self.auditor
        self.server_down = False
        self.proxy_down = [False, False]
        self.partitioned = False

    def proxy_for(self, client: str) -> ProxyCache:
        return self.proxies[CLIENTS.index(client) % 2]

    def request(self, client: str, url: str):
        proxy = self.proxy_for(client)
        if not proxy.up:
            return None
        outcomes = []
        proxy.submit(client, url, outcomes.append)
        self.sim.run(until=self.sim.now + 5.0)
        return outcomes[0] if outcomes else None

    def step(self) -> None:
        roll = self.rng.random()
        if roll < 0.55:
            self.request(self.rng.choice(CLIENTS), self.rng.choice(list(DOCS)))
        elif roll < 0.75:
            url = self.rng.choice(list(DOCS))
            self.fs.modify(url, now=self.sim.now)
            self.server.check_in(url)
            self.sim.run(until=self.sim.now + self.rng.uniform(0.1, 2.0))
        elif roll < 0.85:
            index = self.rng.randrange(2)
            proxy = self.proxies[index]
            if proxy.up:
                proxy.crash()
            else:
                proxy.recover()
        elif roll < 0.93:
            if self.server.up:
                self.server.crash()
            else:
                self.server.recover()
                self.sim.run(until=self.sim.now + 1.0)
        else:
            if self.partitioned:
                self.net.heal()
                self.partitioned = False
            else:
                self.net.partition(
                    {"server"}, {self.rng.choice(["proxy-0", "proxy-1"])}
                )
                self.partitioned = True

    def heal_everything(self) -> None:
        self.net.heal()
        self.partitioned = False
        if not self.server.up:
            self.server.recover()
        for proxy in self.proxies:
            if not proxy.up:
                proxy.recover()
        # Let retried invalidations and recovery fan-outs drain.
        self.sim.run(until=self.sim.now + 120.0)


@pytest.mark.parametrize("seed", range(8))
def test_invalidation_torture(seed):
    torture = Torture(seed, invalidation(blocking=False, retry_interval=2.0))
    for _ in range(120):
        torture.step()
    torture.heal_everything()

    # Safety held throughout the churn.
    assert torture.auditor.violation_count == 0

    # Quiescent convergence: every (client, doc) re-read is fresh.
    for client in CLIENTS:
        for url in DOCS:
            outcome = torture.request(client, url)
            assert outcome is not None and not outcome.failed
            assert not outcome.stale_served
    assert torture.auditor.violation_count == 0


@pytest.mark.parametrize("seed", [3, 11])
def test_two_tier_torture(seed):
    torture = Torture(
        seed, two_tier_lease(lease_duration=1e6, blocking=False,
                             retry_interval=2.0)
    )
    for _ in range(100):
        torture.step()
    torture.heal_everything()
    assert torture.auditor.violation_count == 0
    for client in CLIENTS:
        for url in DOCS:
            outcome = torture.request(client, url)
            assert outcome is not None and not outcome.failed
            assert not outcome.stale_served
