"""Discrete-event simulation core.

This subpackage provides the minimal machinery used by the performance layer
of the Pensieve reproduction: a simulated clock and a priority-queue event
loop.  The serving engines (:mod:`repro.core`,
:mod:`repro.serving`) schedule kernel executions and PCIe transfers as timed
events on this loop instead of running them on real hardware.
"""

from repro.sim.clock import Clock
from repro.sim.events import Event, EventLoop, SimulationError

__all__ = [
    "Clock",
    "Event",
    "EventLoop",
    "SimulationError",
]
