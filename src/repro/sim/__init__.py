"""Discrete-event simulation core.

This subpackage provides the minimal machinery used by the performance layer
of the Pensieve reproduction: a priority-queue event loop that owns the
simulated clock.  The serving engines (:mod:`repro.core`,
:mod:`repro.serving`) schedule kernel executions and PCIe transfers as timed
events on this loop instead of running them on real hardware.
"""

from repro.sim.events import Event, EventLoop, SimulationError

__all__ = [
    "Event",
    "EventLoop",
    "SimulationError",
]
