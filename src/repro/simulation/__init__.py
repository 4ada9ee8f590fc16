"""Discrete-event simulation kernel (the reproduction's OMNeT++ substitute).

Public surface:

* :class:`~repro.simulation.engine.Simulator` -- deterministic event scheduler
* :class:`~repro.simulation.process.SimProcess` -- module/process base class
* :class:`~repro.simulation.events.EventPriority` -- same-time ordering bands
* :class:`~repro.simulation.rng.RandomStreams` -- named reproducible RNG streams
* :class:`~repro.simulation.trace.Tracer` -- structured event trace
"""

from .clock import SimClock
from .engine import SimulationError, Simulator
from .events import Event, EventPriority
from .process import SimProcess
from .rng import RandomStreams
from .trace import NULL_TRACER, TraceRecord, Tracer

__all__ = [
    "SimClock",
    "SimulationError",
    "Simulator",
    "Event",
    "EventPriority",
    "SimProcess",
    "RandomStreams",
    "Tracer",
    "TraceRecord",
    "NULL_TRACER",
]
