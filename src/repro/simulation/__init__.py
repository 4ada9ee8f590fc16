"""Discrete-event simulation kernel (the reproduction's OMNeT++ substitute).

Public surface:

* :class:`~repro.simulation.engine.Simulator` -- deterministic event
  scheduler; :attr:`Simulator.now` is the simulated time
* :class:`~repro.simulation.events.EventPriority` -- same-time ordering bands
* :class:`~repro.simulation.rng.RandomStreams` -- named reproducible RNG streams
* :class:`~repro.simulation.trace.Tracer` -- structured event trace
"""

from .engine import SimulationError, Simulator
from .events import Event, EventPriority
from .rng import RandomStreams
from .trace import NULL_TRACER, TraceRecord, Tracer

__all__ = [
    "SimulationError",
    "Simulator",
    "Event",
    "EventPriority",
    "RandomStreams",
    "Tracer",
    "TraceRecord",
    "NULL_TRACER",
]
