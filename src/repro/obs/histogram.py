"""Streaming log-bucketed latency histograms (``repro.obs.histogram``).

The SLO layer needs percentiles over millions of samples without keeping
the samples: each :class:`Histogram` maps a value to a geometric bucket in
O(1) (one ``math.log``), keeps **exact integer counts per bucket** in a
sparse dict, and tracks exact ``count`` / ``sum`` / ``min`` / ``max``.
Every histogram has the same buckets (:data:`DEFAULT_MIN_VALUE`,
:data:`DEFAULT_BASE`), so same-name histograms are always mergeable.
Quantiles are read from the bucket upper bounds, so a reported p99 is an
upper bound at most one bucket width (~19%) above the true order
statistic — and ``max`` is always exact.

Design constraints mirror the tracer (ARCHITECTURE.md §9):

- **Dual-clock aware.**  A histogram is stamped with the clock axis its
  samples were measured on (``"sim"`` for discrete-event seconds,
  ``"wall"`` for ``time.perf_counter`` seconds) so exporters can label
  the axis; the two are never mixed in one histogram.
- **Off is ``None``.**  A ``MetricsCollector`` holds ``hist = None``
  until its SLO layer is armed, and every recording site tests
  ``hist is not None`` exactly like tracer sites, so the unarmed path
  does no histogram work (asserted by ``tests/obs``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Histogram", "HistogramSet"]

#: Geometric growth per bucket: 2**(1/4) ≈ 1.189, i.e. ~19% wide
#: buckets — 4 buckets per octave, ~80 buckets across 1 µs .. 1000 s.
DEFAULT_BASE = 2.0 ** 0.25

#: Smallest resolvable value; everything at or below it lands in the
#: underflow bucket whose upper bound is ``DEFAULT_MIN_VALUE``.
DEFAULT_MIN_VALUE = 1e-6

_LOG_BASE = math.log(DEFAULT_BASE)

_LabelKey = Tuple[Tuple[str, str], ...]


class Histogram:
    """One streaming distribution with exact per-bucket counts.

    With ``m = DEFAULT_MIN_VALUE`` and ``b = DEFAULT_BASE``, bucket ``i``
    (``i >= 1``) covers ``(m * b**(i-1), m * b**i]``; bucket ``0`` is the
    underflow bucket covering ``(-inf, m]`` (durations are never
    negative, but a defensive clamp keeps bad inputs from throwing in
    ``math.log``).
    """

    __slots__ = (
        "name",
        "labels",
        "clock",
        "_buckets",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(
        self,
        name: str = "",
        labels: Optional[Dict[str, str]] = None,
        clock: str = "sim",
    ) -> None:
        if clock not in ("sim", "wall"):
            raise ValueError(f"clock must be 'sim' or 'wall', got {clock!r}")
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self.clock = clock
        self._buckets: Dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- recording -----------------------------------------------------

    def _index(self, value: float) -> int:
        if value <= DEFAULT_MIN_VALUE:
            return 0
        # ceil of log_base(value / DEFAULT_MIN_VALUE); float fuzz nudged so
        # exact bucket boundaries land in the *lower* bucket (bounds
        # inclusive).
        raw = math.log(value / DEFAULT_MIN_VALUE) / _LOG_BASE
        idx = math.ceil(raw - 1e-9)
        return max(1, idx)

    def record(self, value: float) -> None:
        """O(1): one log, one dict bump, four scalar updates."""
        value = float(value)
        idx = self._index(value)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    # -- read API ------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> float:
        """Exact smallest recorded value (0.0 when empty)."""
        return 0.0 if self._count == 0 else self._min

    @property
    def max(self) -> float:
        """Exact largest recorded value (0.0 when empty)."""
        return 0.0 if self._count == 0 else self._max

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def bucket_upper(self, index: int) -> float:
        """Upper bound of bucket ``index`` on the value axis."""
        if index <= 0:
            return DEFAULT_MIN_VALUE
        return DEFAULT_MIN_VALUE * DEFAULT_BASE ** index

    def buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, exact_count)`` pairs, ascending, only non-empty
        buckets."""
        return [
            (self.bucket_upper(i), self._buckets[i])
            for i in sorted(self._buckets)
        ]

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs, ascending."""
        out: List[Tuple[float, int]] = []
        running = 0
        for upper, count in self.buckets():
            running += count
            out.append((upper, running))
        return out

    def percentile(self, q: float) -> float:
        """Value bound below which at least ``q`` percent of samples fall.

        Returns the bucket upper bound containing the order statistic,
        clamped to the exact observed ``max`` (so ``percentile(100) ==
        max``).  Empty histograms report 0.0.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self._count == 0:
            return 0.0
        rank = math.ceil(self._count * q / 100.0)
        rank = max(1, rank)
        running = 0
        for index in sorted(self._buckets):
            running += self._buckets[index]
            if running >= rank:
                return min(self.bucket_upper(index), self._max)
        return self._max  # pragma: no cover - rank <= count always hits

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p90(self) -> float:
        return self.percentile(90.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    # -- export --------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot (used by the JSONL sampler and tests)."""
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "clock": self.clock,
            "count": self._count,
            "sum": self._sum,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "buckets": [[upper, count] for upper, count in self.buckets()],
        }

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        lbl = "".join(f", {k}={v}" for k, v in sorted(self.labels.items()))
        return (
            f"Histogram({self.name!r}{lbl}, n={self._count}, "
            f"p50={self.p50:.6g}, p99={self.p99:.6g}, max={self.max:.6g})"
        )


class HistogramSet:
    """A named registry of histograms keyed by ``(name, labels)``.

    ``hist()`` is get-or-create, so instrumentation sites never need
    registration boilerplate::

        hists.hist("swap_in_seconds", tier="cpu").record(record.duration)
    """

    def __init__(self) -> None:
        self._hists: Dict[Tuple[str, _LabelKey], Histogram] = {}

    @staticmethod
    def _key(name: str, labels: Dict[str, str]) -> Tuple[str, _LabelKey]:
        return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))

    def hist(self, name: str, clock: str = "sim", **labels: str) -> Histogram:
        key = self._key(name, labels)
        found = self._hists.get(key)
        if found is None:
            found = Histogram(
                name,
                labels={k: str(v) for k, v in labels.items()},
                clock=clock,
            )
            self._hists[key] = found
        return found

    def get(self, name: str, **labels: str) -> Optional[Histogram]:
        """Lookup without creating; ``None`` when never recorded."""
        return self._hists.get(self._key(name, labels))

    def all(self) -> List[Histogram]:
        """Every histogram, ordered by (name, labels) for stable export."""
        return [self._hists[key] for key in sorted(self._hists)]

    def __iter__(self) -> Iterator[Histogram]:
        return iter(self.all())

    def __len__(self) -> int:
        return len(self._hists)

    def __repr__(self) -> str:
        total = sum(h.count for h in self._hists.values())
        return f"HistogramSet(hists={len(self._hists)}, samples={total})"
