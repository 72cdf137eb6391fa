"""Priority-queue event loop for discrete-event simulation.

The loop dispatches callbacks in timestamp order; ties are broken by
insertion order so that a sequence of events scheduled for the same instant
runs in FIFO order, which keeps scheduler behaviour deterministic.  A
scheduled event cannot be withdrawn: it dispatches once its time comes.

Typical usage::

    loop = EventLoop()
    loop.schedule(1.5, handle_arrival, request)
    loop.run()          # runs until the queue drains
    print(loop.now)     # 1.5
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.obs.tracer import NULL_TRACER
from repro.sim.clock import Clock


class SimulationError(RuntimeError):
    """Raised when the event loop is used incorrectly."""


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    The loop orders events by ``(time, seq)``.  ``seq`` is a monotonically
    increasing insertion counter, giving same-time events FIFO semantics.
    """

    time: float
    seq: int
    callback: Callable[..., None]
    args: Tuple[Any, ...] = ()


class EventLoop:
    """A deterministic discrete-event loop.

    The loop owns a :class:`~repro.sim.clock.Clock`.  Callbacks may schedule
    further events (at or after the current time).  ``run`` processes events
    until the queue is empty or an optional horizon is reached.
    """

    #: Gauge the event-queue depth every this many dispatches (traced runs).
    TRACE_GAUGE_EVERY = 512

    def __init__(self) -> None:
        self._clock = Clock()
        # ``(time, seq, event)``: the heap orders by a C tuple compare,
        # and ``seq`` is unique, so it never compares two events.
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._dispatched = 0
        #: Observability sink; the shared null tracer costs one attribute
        #: check per dispatch when tracing is off.
        self.tracer = NULL_TRACER

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._clock.now

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    @property
    def dispatched(self) -> int:
        """Total number of events dispatched so far."""
        return self._dispatched

    def schedule(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to run at absolute ``time``.

        Raises:
            SimulationError: if ``time`` is in the simulated past, or not
                finite (a NaN would pass every later past-time check).
        """
        if not self._clock.now <= time < math.inf:
            if not math.isfinite(time):
                raise SimulationError(
                    f"cannot schedule event at non-finite time {time!r}"
                )
            raise SimulationError(
                f"cannot schedule event at {time!r} before now={self._clock.now!r}"
            )
        time = float(time)
        seq = next(self._seq)
        event = Event(time, seq, callback, args)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Raises:
            SimulationError: if ``delay`` is negative or not finite.
        """
        if not 0.0 <= delay < math.inf:
            raise SimulationError(
                f"delay must be finite and non-negative, got {delay!r}"
            )
        return self.schedule(self._clock.now + delay, callback, *args)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Dispatch queued events in order.

        Args:
            until: stop once the next event would occur strictly after this
                time.  The clock is advanced to ``until`` when it is reached.
            max_events: safety valve; raise if more events dispatch.

        Returns:
            The number of events dispatched by this call.

        Raises:
            SimulationError: on re-entrant ``run`` or when ``max_events`` is
                exceeded (which almost always indicates a scheduling loop).
        """
        if self._running:
            raise SimulationError("EventLoop.run is not re-entrant")
        self._running = True
        dispatched = 0
        queue = self._queue
        try:
            while queue:
                time, _, event = queue[0]
                if until is not None and time > until:
                    break
                heapq.heappop(queue)
                self._clock.advance_to(time)
                event.callback(*event.args)
                dispatched += 1
                self._dispatched += 1
                if self.tracer.enabled:
                    self.tracer.count("sim.events_dispatched")
                    if self._dispatched % self.TRACE_GAUGE_EVERY == 0:
                        self.tracer.gauge(
                            "sim.pending_events", self.pending, t=self._clock.now
                        )
                if max_events is not None and dispatched > max_events:
                    raise SimulationError(
                        f"dispatched more than max_events={max_events} events; "
                        "likely a scheduling loop"
                    )
            if until is not None and self._clock.now < until:
                self._clock.advance_to(until)
        finally:
            self._running = False
        return dispatched

    def __repr__(self) -> str:
        return f"EventLoop(now={self.now:.6f}, pending={self.pending})"
