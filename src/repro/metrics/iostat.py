"""iostat-style server load measurement.

The paper measures server load "as CPU and disk utilization using iostat"
over the replay.  :class:`IostatSampler` divides the server's CPU/disk
resource busy time and operation counters by the wall time elapsed since
it was created, giving the same three numbers the tables print: average
CPU utilisation, disk reads per second, disk writes per second.  It reads
them when asked and schedules no event of its own.
"""

from __future__ import annotations

from ..server.httpd import ServerSite
from ..sim import Simulator

__all__ = ["IostatSampler"]


class IostatSampler:
    """Whole-run load of a :class:`ServerSite`, from creation to now.

    Args:
        sim: the simulator.
        server: the server site to watch.
    """

    def __init__(self, sim: Simulator, server: ServerSite) -> None:
        self.sim = sim
        self.server = server
        self._started = sim.now

    def elapsed(self) -> float:
        """Wall time observed so far."""
        return self.sim.now - self._started

    def cpu_utilization(self) -> float:
        """Average CPU utilisation over the whole run."""
        elapsed = self.elapsed()
        return self.server.cpu.busy_time() / elapsed if elapsed > 0 else 0.0

    def disk_utilization(self) -> float:
        """Average disk utilisation over the whole run."""
        elapsed = self.elapsed()
        return self.server.disk.busy_time() / elapsed if elapsed > 0 else 0.0

    def disk_reads_per_sec(self) -> float:
        """Average disk reads/second over the whole run."""
        elapsed = self.elapsed()
        return self.server.disk_reads / elapsed if elapsed > 0 else 0.0

    def disk_writes_per_sec(self) -> float:
        """Average disk writes/second over the whole run."""
        elapsed = self.elapsed()
        return self.server.disk_writes / elapsed if elapsed > 0 else 0.0
