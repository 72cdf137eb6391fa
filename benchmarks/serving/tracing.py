"""Benchmark-side tracing: spans recorded around calls into each layer.

Nothing under ``src/`` is edited.  A :class:`Tracer` replaces a bound
method by an instance attribute that records one span per call (name,
start, end, parent span, and the id of the ``chat_batch`` call or sweep
rate that caused it), so the program keeps calling ``self.storage.write``
and reaches the wrapper.  Shared singletons (the registered ``Backend``)
are wrapped through a per-server :class:`Delegate` instead, so the
untraced servers of the same process are left alone.

A layer's ``*_s`` is **self time**: its spans' duration minus the part
covered by their direct child spans.  Single-threaded, so child spans
never overlap and the top-level self times add up to the traced wall
time.

Spans are kept as five parallel columns of scalars, not one object per
span: a simulated sweep records close to a million spans, and a million
small lists make every cyclic-GC pass walk all of them.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

Namer = Callable[..., str]
Observer = Callable[[Dict[str, float], tuple, Any], None]


class Delegate:
    """Forwards every attribute to ``inner``; wrappers are set on the
    delegate, never on the shared object behind it."""

    def __init__(self, inner: Any) -> None:
        self._inner = inner

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class Tracer:
    """In-memory span and counter recorder.

    Span ``i`` is ``(name[i], start[i], end[i], parent[i], span_cause[i])``;
    ``parent`` is a span index, -1 at top level.
    """

    def __init__(self) -> None:
        self.name: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.span_cause: List[Union[int, float, None]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Stamped on new spans: the chat_batch call index or sweep rate.
        self.cause: Union[int, float, None] = None
        self._stack: List[int] = []

    def _open(self, name: str) -> int:
        index = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.span_cause.append(self.cause)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: Union[str, Namer],
        observe: Optional[Observer] = None,
    ) -> None:
        """Record a span around every ``obj.attr(...)`` call from now on.

        ``name`` may be a function of the call's arguments (prefill and
        decode forwards share one method).  ``observe(counters, args,
        result)`` runs after the span closed, for counts taken at the
        same boundary.
        """
        inner = getattr(obj, attr)
        fixed = None if callable(name) else name
        names, starts, ends = self.name, self.start, self.end
        parents, causes, stack = self.parent, self.span_cause, self._stack

        # _open/_close inlined on bound columns: the simulated engine
        # calls one wrapped method 770,000 times per sweep.
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(fixed if fixed is not None else name(*args, **kwargs))
            parents.append(stack[-1] if stack else -1)
            causes.append(self.cause)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = inner(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counters, args, result)
            return result

        setattr(obj, attr, traced)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a call the benchmark itself makes."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def duration(self, index: int) -> float:
        return self.end[index] - self.start[index]

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        self_s = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                self_s[parent] -= self.duration(index)
        agg: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, name in enumerate(self.name):
            entry = agg[name]
            entry["calls"] += 1
            entry["total_s"] += self.duration(index)
            entry["self_s"] += self_s[index]
        return agg

    def named(self, name: str) -> List[int]:
        """Indices of the spans called ``name``, in start order."""
        return [i for i, n in enumerate(self.name) if n == name]

    def children(self, parents: List[int]) -> Dict[int, List[int]]:
        """Direct child spans of each given span, in start order."""
        out: Dict[int, List[int]] = {index: [] for index in parents}
        for index, parent in enumerate(self.parent):
            if parent in out:
                out[parent].append(index)
        return out

    def export(self) -> Dict[str, Any]:
        """The spans for ``--out``, names interned."""
        names = sorted(set(self.name))
        code = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "name": [code[n] for n in self.name],
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "cause": self.span_cause,
        }
