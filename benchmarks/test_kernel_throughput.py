"""Simulation-kernel throughput benchmarks.

Not a paper table — engineering due diligence for the substrate: the
replay experiments push ~10^6 events per run, so the kernel's events/
second figure bounds the whole suite's runtime.  These run with real
statistical rounds (unlike the one-shot ``repro bench`` recorder).

The three shared workloads are defined once, in
``repro.bench.KERNEL_BENCHMARKS``, and run here at their ``quick_n``
size; the resource-contention shape exists only in this suite.
"""

import pytest

from repro.bench import KERNEL_BENCHMARKS
from repro.sim import Resource, Simulator


#: Events per round where a workload's round is more than one event.
_EVENTS_PER_ROUND = {"hit_path_callbacks": 2}


@pytest.mark.parametrize("name", sorted(KERNEL_BENCHMARKS))
def test_kernel_workload_throughput(benchmark, name):
    """One ``repro bench`` kernel workload; checks its event count."""
    fn, _full_n, quick_n = KERNEL_BENCHMARKS[name]
    events, _elapsed = benchmark(fn, quick_n)
    assert events == _EVENTS_PER_ROUND.get(name, 1) * quick_n


def test_resource_contention_throughput(benchmark):
    """FIFO resource grant/release rate under contention."""

    def run():
        sim = Simulator()
        cpu = Resource(sim)
        done = [0]

        def worker(left):
            if left:
                cpu.acquire(granted, left)
            else:
                done[0] += 1

        def granted(claim, left):
            sim.call_later(0.001, finished, claim, left)

        def finished(claim, left):
            cpu.release(claim)
            worker(left - 1)

        for _ in range(40):
            worker(50)
        sim.run()
        return done[0]

    assert benchmark(run) == 40

