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
from ..sim import Event
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

    Each request runs on :meth:`ProxyCache.submit`, which calls
    :meth:`_on_done` however the request ends.  That records the
    outcome, pays the driver overhead and issues the next record; the
    interval's done event fires once no record is left before the
    interval's end.
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
        self._done: Optional[Event] = None

    def participant(self, trace_start: float, trace_end: float) -> Optional[Event]:
        """Coordinator participant: replay records in [start, end).

        Returns an event that fires when the last of them has completed
        and paid its driver overhead, or ``None`` when no record falls
        in the interval.
        """
        self._interval_end = trace_end
        if not self._due():
            return None
        self._done = Event(self.proxy.sim)
        self._issue_next()
        return self._done

    def _due(self) -> bool:
        """True when the next record falls in the current interval."""
        return (
            self._next < len(self.records)
            and self.records[self._next].timestamp < self._interval_end
        )

    def _issue_next(self) -> None:
        """Start the next record's request, or end the interval."""
        if self._due():
            record = self.records[self._next]
            self._next += 1
            self.proxy.submit(record.client, record.url, self._on_done)
        else:
            self._done.succeed()

    def _on_done(self, outcome) -> None:
        """A request completed: record it, then think before the next."""
        self.counters.record(outcome)
        if self.think_time > 0:
            delay = self.rng.uniform(0.5, 1.5) * self.think_time
            self.proxy.sim.call_later(delay, self._issue_next)
        else:
            self._issue_next()
