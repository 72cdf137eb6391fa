"""Low-overhead hierarchical tracer with typed counters and gauges.

Design constraints (see ARCHITECTURE.md §9):

- **Dual clocks.**  Every span/instant/gauge carries a *primary* timestamp
  ``t`` — simulated seconds in the discrete-event layer, a coarse logical
  clock in the functional server — and a *wall* timestamp measured with
  ``time.perf_counter()`` relative to tracer creation.  Exporters pick
  either axis.
- **Asynchronous spans.**  The discrete-event engines open a span in one
  callback and close it in another, so the core API is explicit
  :meth:`Tracer.begin` / :meth:`Tracer.end` (parent passed explicitly, or
  none).  Synchronous code uses the :meth:`Tracer.span` context manager,
  which maintains a nesting stack and parents automatically.  Spans whose
  interval is already known (a simulated iteration) are emitted in one
  shot with :meth:`Tracer.complete`.
- **Free when off.**  :class:`NullTracer` implements the full interface as
  no-ops that allocate nothing, and instrumentation sites that would
  otherwise *compute* payload values guard on :attr:`NullTracer.enabled`.
  A run with the null tracer executes byte-identical work to an
  uninstrumented build (asserted by ``tests/obs``).
- **Determinism.**  Span ids are sequential in creation order; two runs of
  the same seeded workload produce identical span/event sequences on the
  primary clock (wall stamps naturally differ).
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, List, Optional, Tuple


class Span:
    """One finished-or-open span.  Mutable while open; treated as frozen
    after :meth:`Tracer.end` stamps ``t1``/``wall1``."""

    __slots__ = ("id", "name", "parent", "t0", "t1", "wall0", "wall1", "attrs")

    def __init__(
        self,
        span_id: int,
        name: str,
        parent: Optional[int],
        t0: float,
        wall0: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.t0 = t0
        self.t1: Optional[float] = None
        self.wall0 = wall0
        self.wall1: Optional[float] = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Primary-clock duration (0.0 while the span is still open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    @property
    def wall_duration(self) -> float:
        return 0.0 if self.wall1 is None else self.wall1 - self.wall0

    def __repr__(self) -> str:
        state = "open" if self.t1 is None else f"dur={self.duration:.6f}"
        return f"Span({self.id}, {self.name!r}, {state})"


class _NullSpanContext:
    """Shared, stateless no-op context manager (one instance per process)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """The disabled tracer: every operation is an allocation-free no-op.

    Instrumentation sites that would compute payload values (token sums,
    fragmentation scans) must additionally guard on :attr:`enabled` so the
    disabled path does no work at all.
    """

    enabled = False

    def begin(
        self,
        name: str,
        t: float = 0.0,
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        return 0

    def end(self, span_id: int, t: float = 0.0, **attrs: Any) -> None:
        return None

    def complete(
        self,
        name: str,
        t0: float,
        t1: float,
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        return 0

    def span(self, name: str, t: float = 0.0, **attrs: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def instant(self, name: str, t: float = 0.0, **attrs: Any) -> None:
        return None

    def count(self, name: str, delta: float = 1.0) -> None:
        return None

    def gauge(self, name: str, value: float, t: float = 0.0) -> None:
        return None

    def close_open(self, t: float = 0.0) -> None:
        return None


#: Process-wide shared null tracer; the default ``tracer`` everywhere.
NULL_TRACER = NullTracer()


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_t", "_attrs", "_span_id")

    def __init__(
        self, tracer: "Tracer", name: str, t: Optional[float], attrs: Dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._t = t
        self._attrs = attrs
        self._span_id = 0

    def __enter__(self) -> int:
        tr = self._tracer
        parent = tr._stack[-1] if tr._stack else None
        self._span_id = tr.begin(
            self._name, t=tr._resolve_time(self._t), parent=parent, **self._attrs
        )
        tr._stack.append(self._span_id)
        return self._span_id

    def __exit__(self, *exc: object) -> bool:
        tr = self._tracer
        tr._stack.pop()
        tr.end(self._span_id, t=tr._resolve_time(self._t))
        return False


class Tracer(NullTracer):
    """Recording tracer.

    When an instrumentation site does not pass ``t`` explicitly, the
    timestamp defaults to the last explicitly-seen time, so synchronous
    wrappers still nest correctly on the primary axis.
    """

    enabled = True

    def __init__(self) -> None:
        self._wall_origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._spans: List[Span] = []
        self._open: Dict[int, Span] = {}
        self._stack: List[int] = []
        self._instants: List[Tuple[str, float, float, Optional[int], Dict[str, Any]]] = []
        self._counters: Dict[str, float] = {}
        self._gauges: List[Tuple[str, float, float, float]] = []
        self._last_time = 0.0

    # -- clock helpers -------------------------------------------------

    def _wall(self) -> float:
        return time.perf_counter() - self._wall_origin

    def _resolve_time(self, t: Optional[float]) -> float:
        if t is not None:
            self._last_time = t
            return t
        return self._last_time

    # -- spans ---------------------------------------------------------

    def begin(
        self,
        name: str,
        t: Optional[float] = None,
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        span = Span(
            next(self._ids), name, parent, self._resolve_time(t), self._wall(), attrs
        )
        self._spans.append(span)
        self._open[span.id] = span
        return span.id

    def end(self, span_id: int, t: Optional[float] = None, **attrs: Any) -> None:
        span = self._open.pop(span_id, None)
        if span is None:
            return  # already closed (or a null handle): tolerate, don't raise
        span.t1 = self._resolve_time(t)
        span.wall1 = self._wall()
        if attrs:
            span.attrs.update(attrs)

    def complete(
        self,
        name: str,
        t0: float,
        t1: float,
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        span = Span(next(self._ids), name, parent, t0, self._wall(), attrs)
        span.t1 = t1
        span.wall1 = span.wall0
        self._last_time = t1
        self._spans.append(span)
        return span.id

    def span(self, name: str, t: Optional[float] = None, **attrs: Any) -> _SpanContext:
        return _SpanContext(self, name, t, attrs)

    def close_open(self, t: Optional[float] = None) -> None:
        """Close every still-open span (e.g. requests in flight when the
        simulation horizon is reached) at ``t``."""
        for span_id in sorted(self._open):
            self.end(span_id, t=t, truncated=True)

    # -- instants, counters, gauges -------------------------------------

    def instant(self, name: str, t: Optional[float] = None, **attrs: Any) -> None:
        parent = self._stack[-1] if self._stack else None
        self._instants.append(
            (name, self._resolve_time(t), self._wall(), parent, attrs)
        )

    def count(self, name: str, delta: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + delta

    def gauge(self, name: str, value: float, t: Optional[float] = None) -> None:
        self._gauges.append((name, self._resolve_time(t), self._wall(), float(value)))

    # -- read API (exporters & tests) -----------------------------------

    @property
    def spans(self) -> List[Span]:
        """All spans in creation order (open spans have ``t1 is None``)."""
        return list(self._spans)

    @property
    def instants(self) -> List[Tuple[str, float, float, Optional[int], Dict[str, Any]]]:
        """``(name, t, wall, parent, attrs)`` tuples in record order."""
        return list(self._instants)

    @property
    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    @property
    def gauge_samples(self) -> List[Tuple[str, float, float, float]]:
        """``(name, t, wall, value)`` samples in record order."""
        return list(self._gauges)

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self._spans if s.name == name]

    def __len__(self) -> int:
        return len(self._spans) + len(self._instants)

    def __bool__(self) -> bool:
        """Always truthy: an *empty* tracer is still an armed tracer
        (``tracer or NULL_TRACER`` must not discard it)."""
        return True

    def __repr__(self) -> str:
        return (
            f"Tracer(spans={len(self._spans)}, instants={len(self._instants)}, "
            f"counters={len(self._counters)}, gauges={len(self._gauges)})"
        )
