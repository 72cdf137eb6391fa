"""Simulated wall-clock time.

All times in the simulation are expressed in *seconds* as floats.  The clock
is owned by the :class:`repro.sim.events.EventLoop` and only advances when
the loop dispatches an event; user code must never set it backwards.
"""

from __future__ import annotations

import math


class Clock:
    """A monotonically non-decreasing simulated clock.

    The clock starts at ``0.0`` seconds.  It is advanced exclusively through
    :meth:`advance_to`, which enforces monotonicity so that causality bugs in
    the event loop surface immediately instead of silently corrupting
    latency measurements.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        # One chained compare also refuses NaN, which fails every compare.
        if not 0.0 <= start < math.inf:
            raise ValueError(
                f"clock must start at a finite non-negative time, got {start!r}"
            )
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Advance the clock to ``time``.

        Raises:
            ValueError: if ``time`` is earlier than the current time, or
                not finite (a NaN would pass every later past-time check).
        """
        if not self._now <= time < math.inf:
            if not math.isfinite(time):
                raise ValueError(f"clock cannot move to non-finite time {time!r}")
            raise ValueError(
                f"clock cannot move backwards: now={self._now!r}, target={time!r}"
            )
        self._now = float(time)

    def __repr__(self) -> str:
        return f"Clock(now={self._now:.6f})"
