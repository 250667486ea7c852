"""Discrete-event simulation substrate (engine and events).

See :mod:`repro.sim.engine` for the event loop and :mod:`repro.sim.arena`
for the recycled storage of its deferred callbacks.
"""

from .engine import AllOf, AnyOf, Engine, Event, Process, SimulationError, Timeout

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
]
