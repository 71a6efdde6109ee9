"""Pseudo-clients: replay trace requests through a proxy (Section 5.1).

"Each pseudo-client handles approximately one fourth of the real clients
in the trace ... Pseudo-client i handles real clients whose clientid mod
4 is i.  A caching proxy runs on each pseudo-client.  A separate program
reads every record from the trace file, and if the real client in the
record is handled by the pseudo-client, generates a corresponding HTTP
request and sends it to the proxy, then waits for the reply."

Requests are issued serially per pseudo-client with a small per-request
driver overhead ("think time") covering trace parsing, logging and 1996
process scheduling — it dominates the replay's wall pace, as the paper's
measured disk-write rates imply (~3 requests/second across 4 clients).
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Callable, Dict, List, Optional, Sequence

from ..metrics import ReplayCounters
from ..proxy import ProxyCache
from ..traces import TraceRecord

__all__ = ["PseudoClient", "shard_for_client", "shard_records"]


def shard_for_client(client_id: str, num_shards: int) -> int:
    """Deterministic "clientid mod N" shard for a real client."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    return zlib.crc32(client_id.encode()) % num_shards


def shard_records(
    records: Sequence[TraceRecord], num_shards: int
) -> List[List[TraceRecord]]:
    """Split trace records across pseudo-clients by real-client id."""
    shards: List[List[TraceRecord]] = [[] for _ in range(num_shards)]
    # Hash each distinct client once, not once per record.
    shard_of: Dict[str, List[TraceRecord]] = {}
    for record in records:
        shard = shard_of.get(record.client)
        if shard is None:
            shard = shard_of[record.client] = shards[
                shard_for_client(record.client, num_shards)
            ]
        shard.append(record)
    return shards


class PseudoClient:
    """Replays one shard of trace records through one proxy.

    A coordinator participant (:class:`repro.replay.coordinator.Participant`).
    Each request runs on :meth:`ProxyCache.submit`, which calls
    :meth:`_on_done` however the request ends.  That records the
    outcome, draws the driver overhead and submits the next record at
    the end of it; once no record is left before the interval's end, it
    tells the coordinator when that overhead ends instead.
    """

    def __init__(
        self,
        proxy: ProxyCache,
        records: Sequence[TraceRecord],
        counters: ReplayCounters,
        think_time: float = 1.0,
        rng: random.Random = None,
    ) -> None:
        if think_time < 0:
            raise ValueError("think_time must be non-negative")
        self.proxy = proxy
        self.sim = proxy.sim
        self.records = list(records)
        self.counters = counters
        #: Observability hook: an :class:`repro.obs.Observation` whose
        #: ``record_request(outcome, site)`` sees every completed request.
        #: ``None`` (the default) costs one test per request.
        self.observation = None
        self.think_time = think_time
        self.rng = rng or random.Random(0)
        #: Trace time of the next record to replay; ``inf`` after the last.
        self.next_due = self.records[0].timestamp if self.records else math.inf
        self._next = 0
        self._interval_end = 0.0
        self._arrive: Optional[Callable[[float], None]] = None

    def run_interval(
        self, trace_end: float, at: float, arrive: Callable[[float], None]
    ) -> None:
        """Coordinator participant: replay the records before ``trace_end``.

        The first request is issued at wall time ``at``; the last one
        calls ``arrive`` with the instant its driver overhead ends.
        """
        self._interval_end = trace_end
        self._arrive = arrive
        self._submit(at)

    def _submit(self, start: float) -> None:
        """Issue the next record's request at wall time ``start``."""
        records = self.records
        record = records[self._next]
        self._next += 1
        self.next_due = (
            records[self._next].timestamp if self._next < len(records) else math.inf
        )
        self.proxy.submit(record.client, record.url, self._on_done, start)

    def _on_done(self, outcome) -> None:
        """A request completed: record it, then think before the next."""
        self.counters.record(outcome)
        if self.observation is not None:
            self.observation.record_request(outcome, self.proxy.address)
        issue = self.sim.now
        if self.think_time > 0:
            # rng.uniform(0.5, 1.5) without its call: the same draw.
            issue += (0.5 + self.rng.random()) * self.think_time
        if self.next_due < self._interval_end:
            self._submit(issue)
        else:
            self._arrive(issue)
