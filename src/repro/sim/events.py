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

from repro.obs.tracer import Tracer


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
    """A deterministic discrete-event loop that owns the simulated clock.

    ``now`` starts at 0 and only dispatch moves it, never backwards:
    ``schedule`` refuses a past or non-finite time and ``run`` a
    non-finite horizon.  ``run`` processes events until the queue is
    empty or an optional horizon is reached.
    """

    #: Gauge the event-queue depth every this many dispatches (traced runs).
    TRACE_GAUGE_EVERY = 512

    def __init__(self) -> None:
        self._now = 0.0
        # ``(time, seq, event)``: the heap orders by a C tuple compare,
        # and ``seq`` is unique, so it never compares two events.
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._dispatched = 0
        #: Observability sink; ``None`` (the default) costs one
        #: ``is not None`` test per dispatch.
        self.tracer: Optional[Tracer] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

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
        if not self._now <= time < math.inf:
            if not math.isfinite(time):
                raise SimulationError(
                    f"cannot schedule event at non-finite time {time!r}"
                )
            raise SimulationError(
                f"cannot schedule event at {time!r} before now={self._now!r}"
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
        return self.schedule(self._now + delay, callback, *args)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Dispatch queued events in order.

        Args:
            until: stop once the next event would occur strictly after this
                time.  The clock is advanced to ``until`` when it is reached.
            max_events: safety valve; raise if more events dispatch.

        Returns:
            The number of events dispatched by this call.

        Raises:
            SimulationError: on re-entrant ``run``, a non-finite ``until``
                (before anything dispatches), or more than ``max_events``
                dispatches (almost always a scheduling loop).
        """
        if self._running:
            raise SimulationError("EventLoop.run is not re-entrant")
        if until is not None and not math.isfinite(until):
            raise SimulationError(f"cannot run until non-finite time {until!r}")
        self._running = True
        dispatched = 0
        queue = self._queue
        try:
            while queue:
                time, _, event = queue[0]
                if until is not None and time > until:
                    break
                heapq.heappop(queue)
                self._now = time
                event.callback(*event.args)
                dispatched += 1
                self._dispatched += 1
                tracer = self.tracer
                if tracer is not None:
                    tracer.count("sim.events_dispatched")
                    if self._dispatched % self.TRACE_GAUGE_EVERY == 0:
                        tracer.gauge(
                            "sim.pending_events", self.pending, t=self._now
                        )
                if max_events is not None and dispatched > max_events:
                    raise SimulationError(
                        f"dispatched more than max_events={max_events} events; "
                        "likely a scheduling loop"
                    )
            if until is not None and self._now < until:
                self._now = float(until)
        finally:
            self._running = False
        return dispatched

    def discard_pending(self) -> None:
        """Drop every queued event undispatched.

        For a loop that will not run again: a queued event holds its
        callback, and so the callback's owner, as long as the loop lives.
        """
        self._queue.clear()

    def __repr__(self) -> str:
        return f"EventLoop(now={self._now:.6f}, pending={self.pending})"
