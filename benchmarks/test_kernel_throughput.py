"""Simulation-kernel throughput benchmarks.

Not a paper table — engineering due diligence for the substrate: the
replay experiments push ~10^6 events per run, so the kernel's events/
second figure bounds the whole suite's runtime.  These run with real
statistical rounds (unlike the one-shot ``repro bench`` recorder).

The five shared workloads are defined once, in
``repro.bench.KERNEL_BENCHMARKS``, and run here at their ``quick_n``
size; the last two shapes exist only in this suite.
"""

import pytest

from repro.bench import KERNEL_BENCHMARKS
from repro.sim import AllOf, Resource, Simulator


#: Events per round where a workload's round is more than one event.
_EVENTS_PER_ROUND = {"hit_path_ping_pong": 2, "hit_path_callbacks": 2}


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
        cpu = Resource(sim, capacity=2)
        done = [0]

        def worker(sim):
            for _ in range(50):
                with cpu.request() as req:
                    yield req
                    yield sim.timeout(0.001)
            done[0] += 1

        for _ in range(40):
            sim.process(worker(sim))
        sim.run()
        return done[0]

    assert benchmark(run) == 40


def test_condition_fanin_throughput(benchmark):
    """AllOf over many events (a wide fan-in join)."""

    def run():
        sim = Simulator()
        finished = [False]

        def waiter(sim):
            yield AllOf(sim, [sim.timeout(float(i % 13)) for i in range(2_000)])
            finished[0] = True

        sim.process(waiter(sim))
        sim.run()
        return finished[0]

    assert benchmark(run)
