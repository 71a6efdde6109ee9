"""iostat-style server load measurement.

The paper measures server load "as CPU and disk utilization using iostat"
over the replay.  :class:`IostatSampler` divides the accelerator sites'
CPU/disk resource busy time and operation counters by the wall time
elapsed since it was created, giving the same three numbers the tables
print: average CPU utilisation, disk reads per second, disk writes per
second.  It reads them when asked and schedules no event of its own.
"""

from __future__ import annotations

from typing import Sequence

from ..server.httpd import ServerSite
from ..sim import Simulator

__all__ = ["IostatSampler"]


class IostatSampler:
    """Whole-run load of the accelerator sites, from creation to now.

    Utilisation is the mean over the sites (each is one single-CPU,
    single-disk host), so it stays in [0, 1]; operation rates are summed.

    Args:
        sim: the simulator.
        sites: the accelerator sites to watch: the one
            :class:`ServerSite`, or every shard of a cluster.
    """

    def __init__(self, sim: Simulator, sites: Sequence[ServerSite]) -> None:
        self.sim = sim
        self.sites = list(sites)
        self._started = sim.now

    def elapsed(self) -> float:
        """Wall time observed so far."""
        return self.sim.now - self._started

    def cpu_utilization(self) -> float:
        """Average CPU utilisation over the whole run."""
        elapsed = self.elapsed()
        busy = sum(s.cpu.busy_time() for s in self.sites) / len(self.sites)
        return busy / elapsed if elapsed > 0 else 0.0

    def disk_utilization(self) -> float:
        """Average disk utilisation over the whole run."""
        elapsed = self.elapsed()
        busy = sum(s.disk.busy_time() for s in self.sites) / len(self.sites)
        return busy / elapsed if elapsed > 0 else 0.0

    def disk_reads_per_sec(self) -> float:
        """Average disk reads/second over the whole run."""
        elapsed = self.elapsed()
        reads = sum(s.disk_reads for s in self.sites)
        return reads / elapsed if elapsed > 0 else 0.0

    def disk_writes_per_sec(self) -> float:
        """Average disk writes/second over the whole run."""
        elapsed = self.elapsed()
        writes = sum(s.disk_writes for s in self.sites)
        return writes / elapsed if elapsed > 0 else 0.0
