"""Discrete-event simulation kernel.

Public surface::

    from repro.sim import Simulator, Resource, RngRegistry

    sim = Simulator()
    fired = []

    sim.call_later(1.0, fired.append, "done")
    sim.run()
    assert fired == ["done"] and sim.now == 1.0
"""

from .core import Simulator
from .resources import Claim, Resource
from .rng import RngRegistry
from .tracing import EventTracer

__all__ = [
    "Simulator",
    "Resource",
    "Claim",
    "RngRegistry",
    "EventTracer",
]
