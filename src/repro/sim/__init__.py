"""Discrete-event simulation kernel.

Public surface::

    from repro.sim import Simulator, Interrupt, Resource, Store, RngRegistry

    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return "done"

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "done"
"""

from .core import (
    Callback,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    StopSimulation,
    Timeout,
)
from .process import AllOf, AnyOf, ConditionValue, Process
from .resources import Claim, Request, Resource, Store
from .rng import RngRegistry
from .tracing import EventTracer

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Callback",
    "Process",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "Resource",
    "Request",
    "Claim",
    "Store",
    "RngRegistry",
    "EventTracer",
]
