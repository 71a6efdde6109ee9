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

import random
import zlib
from typing import List, Optional, Sequence

from ..metrics import ReplayCounters
from ..proxy import ProxyCache
from ..sim.core import URGENT, Event
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
    for record in records:
        shards[shard_for_client(record.client, num_shards)].append(record)
    return shards


class PseudoClient:
    """Replays one shard of trace records through one proxy.

    Cache hits run entirely on the proxy's pooled callback entries
    (:meth:`ProxyCache.submit`).  The :meth:`participant` generator only
    wakes up for requests that need the network, through a handoff event
    succeeded at URGENT priority: the network leg then resumes with
    nothing processed in between, where an inline continuation would
    have run.
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
        self.records = list(records)
        self.counters = counters
        self.think_time = think_time
        self.rng = rng or random.Random(0)
        self._next = 0
        self._interval_end = 0.0
        self._handoff: Optional[Event] = None

    @property
    def remaining(self) -> int:
        """Records not yet replayed."""
        return len(self.records) - self._next

    def participant(self, trace_start: float, trace_end: float):
        """Coordinator participant: replay records in [start, end).

        Issues each request, waits for the reply, records the outcome,
        then pays the driver overhead before the next request.
        """
        sim = self.proxy.sim
        self._interval_end = trace_end
        while True:
            self._handoff = Event(sim)
            self._issue_next()
            item = yield self._handoff
            if item is None:
                return
            outcome = yield from self.proxy.finish(*item)
            self.counters.record(outcome)
            if self.think_time > 0:
                yield sim.sleep(self.rng.uniform(0.5, 1.5) * self.think_time)

    def _issue_next(self) -> None:
        """Start the next record's request, or end the interval."""
        if self._next < len(self.records):
            record = self.records[self._next]
            if record.timestamp < self._interval_end:
                self._next += 1
                self.proxy.submit(
                    record.client, record.url, self._on_done, self._on_handoff
                )
                return
        self._handoff.succeed(None, URGENT)

    def _on_done(self, outcome) -> None:
        """A request completed on the callback chain (hit or down)."""
        self.counters.record(outcome)
        if self.think_time > 0:
            delay = self.rng.uniform(0.5, 1.5) * self.think_time
            self.proxy.sim.call_later(delay, self._issue_next)
        else:
            self._issue_next()

    def _on_handoff(self, *item) -> None:
        """A request needs the network: wake :meth:`participant` for it."""
        self._handoff.succeed(item, URGENT)
