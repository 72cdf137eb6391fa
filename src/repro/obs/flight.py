"""Per-request flight recorder + SLO capture policy (``repro.obs.flight``).

Tail outliers must be *explainable*, not just countable: the flight
recorder keeps a bounded ring of lifecycle events per in-flight request
(``admit``, ``batch_join``, ``suspend``, ``swap_out``/``swap_in`` with a
``tier`` attribute, ``recompute``, ``retry``, ``fault``, ``abort``,
``finish``).  When a request completes, its ring is popped; if the
request violated a configured TTFT/TBT SLO — or failed — the full event
timeline is captured for the slow-request dump.

Accounting is exact even though the rings are bounded: a separate
monotonic ``event_counts`` ledger is bumped on every record, so flight
totals reconcile assert-equal with the engine/PCIe counters
(``tests/obs/test_slo_reconciliation.py``), regardless of ring evictions.

Off is ``None``, as for the tracer: a ``MetricsCollector`` holds
``flight = None`` until its SLO layer is armed, and every recording site
tests ``flight is not None`` first.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence

from repro.obs.export import write_jsonl

__all__ = [
    "FlightEvent",
    "FlightRecorder",
    "MAX_CAPTURES",
    "RING_CAPACITY",
    "SloConfig",
]

#: Events retained per in-flight request; older events roll off (the
#: count ledger still sees them).
RING_CAPACITY = 64
#: Slow/failed timelines retained; older captures roll off, with
#: ``dropped_captures`` keeping the overflow count.
MAX_CAPTURES = 512


@dataclass(frozen=True)
class SloConfig:
    """Service-level objectives evaluated at request completion.

    Attributes:
        ttft: max acceptable time-to-first-token in seconds (``None``
            disables the TTFT check).
        tbt: max acceptable *mean* time-between-tokens in seconds
            (``None`` disables the TBT check).
    """

    ttft: Optional[float] = None
    tbt: Optional[float] = None

    def __post_init__(self) -> None:
        # ``not x > 0`` also rejects NaN, an objective nothing can violate.
        if self.ttft is not None and not self.ttft > 0:
            raise ValueError(f"slo ttft must be positive, got {self.ttft}")
        if self.tbt is not None and not self.tbt > 0:
            raise ValueError(f"slo tbt must be positive, got {self.tbt}")

    @property
    def armed(self) -> bool:
        return self.ttft is not None or self.tbt is not None

    def violations(self, ttft: float, mean_tbt: float) -> List[str]:
        """Names of the objectives ``(ttft, mean_tbt)`` violates."""
        out: List[str] = []
        if self.ttft is not None and ttft > self.ttft:
            out.append("ttft")
        if self.tbt is not None and mean_tbt > self.tbt:
            out.append("tbt")
        return out

    def as_dict(self) -> Dict[str, Any]:
        return {"ttft": self.ttft, "tbt": self.tbt}


class FlightEvent:
    """One lifecycle event: ``(t, event, attrs)``; immutable by contract."""

    __slots__ = ("t", "event", "attrs")

    def __init__(self, t: float, event: str, attrs: Dict[str, Any]) -> None:
        self.t = t
        self.event = event
        self.attrs = attrs

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"t": round(self.t, 9), "event": self.event}
        if self.attrs:
            out.update(self.attrs)
        return out

    def __repr__(self) -> str:
        return f"FlightEvent({self.t:.6f}, {self.event!r}, {self.attrs})"


class FlightRecorder:
    """Bounded per-request event rings (:data:`RING_CAPACITY` events
    each) with an exact event-count ledger, and up to
    :data:`MAX_CAPTURES` retained slow/failed timelines."""

    def __init__(self) -> None:
        self._rings: Dict[int, Deque[FlightEvent]] = {}
        self._counts: Dict[str, int] = {}
        self._captures: Deque[Dict[str, Any]] = deque(maxlen=MAX_CAPTURES)
        self.dropped_captures = 0

    # -- recording -----------------------------------------------------

    def record(
        self, request_id: int, event: str, t: float, count: int = 1, **attrs: Any
    ) -> None:
        """Append one event to the request's ring.

        ``count`` feeds the exact ledger (e.g. a retry burst records one
        ring event carrying ``count=3`` but bumps the ledger by 3, so
        ledger totals still reconcile with
        :class:`~repro.faults.FaultCounters`).
        """
        ring = self._rings.get(request_id)
        if ring is None:
            ring = deque(maxlen=RING_CAPACITY)
            self._rings[request_id] = ring
        ring.append(FlightEvent(t, event, attrs))
        # Ledger key: ``event``, or ``event.tier`` when tier-attributed.
        tier = attrs.get("tier")
        key = event if tier is None else f"{event}.{tier}"
        self._counts[key] = self._counts.get(key, 0) + count

    def finish(self, request_id: int) -> List[FlightEvent]:
        """Pop and return the request's timeline (empty if unknown)."""
        ring = self._rings.pop(request_id, None)
        return list(ring) if ring is not None else []

    def discard_in_flight(self) -> None:
        """Drop the rings of requests still in flight when a run ends.

        Request ids restart with every run, so a recorder shared across
        runs (a rate sweep) would otherwise splice the next run's
        timeline onto a stale ring with the same id.  The exact
        ``event_counts`` ledger keeps the discarded events.
        """
        self._rings.clear()

    # -- capture policy ------------------------------------------------

    def capture(
        self,
        request_id: int,
        reason: str,
        t: float,
        events: Optional[Sequence[FlightEvent]] = None,
        **attrs: Any,
    ) -> None:
        """Retain a full timeline for a slow or failed request.

        ``events`` is the already-popped timeline from :meth:`finish`;
        when omitted, the still-live ring is snapshotted (and left live).
        """
        if events is None:
            ring = self._rings.get(request_id)
            events = list(ring) if ring is not None else []
        if len(self._captures) == self._captures.maxlen:
            self.dropped_captures += 1
        entry: Dict[str, Any] = {
            "request_id": request_id,
            "reason": reason,
            "t": round(t, 9),
            "events": [e.as_dict() for e in events],
        }
        entry.update(attrs)
        self._captures.append(entry)

    # -- read API ------------------------------------------------------

    @property
    def event_counts(self) -> Dict[str, int]:
        """Exact monotonic totals per event key (survives ring bounds)."""
        return dict(self._counts)

    @property
    def captures(self) -> List[Dict[str, Any]]:
        return list(self._captures)

    def dump_captures(self, path: str | os.PathLike[str]) -> int:
        """Write retained timelines as JSONL; returns the line count."""
        return write_jsonl(path, self._captures)

    def __repr__(self) -> str:
        total = sum(self._counts.values())
        return (
            f"FlightRecorder(in_flight={len(self._rings)}, events={total}, "
            f"captures={len(self._captures)})"
        )
