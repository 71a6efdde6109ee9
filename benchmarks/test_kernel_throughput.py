"""Simulation-kernel throughput benchmarks.

Not a paper table — engineering due diligence for the substrate: the
replay experiments push ~10^6 events per run, so the kernel's events/
second figure bounds the whole suite's runtime.  These run with real
statistical rounds (unlike the one-shot replay benchmarks).
"""

from repro.sim import AllOf, Resource, Simulator, Store


def test_timeout_event_throughput(benchmark):
    """Schedule-and-process rate for bare timeouts."""

    def run():
        sim = Simulator()
        fired = [0]

        def bump():
            fired[0] += 1

        for i in range(10_000):
            sim.schedule_callback(float(i % 97), bump)
        sim.run()
        return fired[0]

    assert benchmark(run) == 10_000


def test_process_switch_throughput(benchmark):
    """Generator-process resume rate (ping-pong via a store)."""

    def run():
        sim = Simulator()
        ping, pong = Store(sim), Store(sim)
        rounds = 2_000

        def left(sim):
            for _ in range(rounds):
                ping.put(1)
                yield pong.get()

        def right(sim):
            for _ in range(rounds):
                yield ping.get()
                pong.put(1)

        sim.process(left(sim))
        sim.process(right(sim))
        sim.run()
        return rounds

    assert benchmark(run) == 2_000


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
    """AllOf over many events (the coordinator's barrier pattern)."""

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

def test_hit_path_callback_throughput(benchmark):
    """Zero-allocation hit flow: chained ``call_later`` ping-pong.

    Mirrors ``ProxyCache.submit`` per cache hit — lookup callback,
    serve callback, next request — with no Event, Timeout or generator
    anywhere in the loop.
    """

    def run():
        sim = Simulator()
        fired = [0]
        rounds = 5_000

        def lookup():
            sim.call_later(0.0002, serve)

        def serve():
            fired[0] += 1
            if fired[0] < rounds:
                sim.call_later(0.0008, lookup)

        sim.call_later(0.0008, lookup)
        sim.run()
        return fired[0]

    assert benchmark(run) == 5_000


def test_bucketed_timeout_storm_throughput(benchmark):
    """Timers landing beyond the calendar horizon (far-heap traffic).

    Delays up to ~1000 s overflow the near-future window, so entries
    migrate far heap -> calendar bucket -> current run as the clock
    advances — the full two-level scheduler machinery.
    """

    def run():
        sim = Simulator()
        fired = [0]

        def bump():
            fired[0] += 1

        for i in range(10_000):
            sim.schedule_callback(float((i * 37) % 1009), bump)
        sim.run()
        return fired[0]

    assert benchmark(run) == 10_000


def test_sleep_pool_throughput(benchmark):
    """Pooled one-shot timers: one process sleeping in a tight loop."""

    def run():
        sim = Simulator()
        done = [0]
        rounds = 10_000

        def proc(sim):
            for _ in range(rounds):
                yield sim.sleep(0.001)
                done[0] += 1

        sim.process(proc(sim))
        sim.run()
        return done[0]

    assert benchmark(run) == 10_000
