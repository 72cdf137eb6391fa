"""Streaming log-bucketed latency histograms (``repro.obs.histogram``).

The SLO layer needs percentiles over millions of samples without keeping
the samples: each :class:`Histogram` maps a value to a geometric bucket in
O(1) (one ``math.log``), keeps **exact integer counts per bucket** in a
sparse dict, and tracks exact ``count`` / ``sum`` / ``min`` / ``max``.
Quantiles are read from the bucket upper bounds, so a reported p99 is an
upper bound at most one bucket width (~19% with the default base) above
the true order statistic — and ``max`` is always exact.

Design constraints mirror the tracer (ARCHITECTURE.md §9):

- **Dual-clock aware.**  A histogram is stamped with the clock axis its
  samples were measured on (``"sim"`` for discrete-event seconds,
  ``"wall"`` for ``time.perf_counter`` seconds) so exporters can label
  the axis; the two are never mixed in one histogram.
- **Free when off.**  :class:`NullHistogramSet` implements the registry
  interface as allocation-free no-ops, and instrumentation sites guard on
  :attr:`NullHistogramSet.enabled` exactly like tracer sites, so the
  disabled path does zero work (asserted by ``tests/obs``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

__all__ = [
    "Histogram",
    "HistogramSet",
    "NULL_HISTOGRAM",
    "NULL_HISTOGRAMS",
    "NullHistogram",
    "NullHistogramSet",
]

#: Default geometric growth per bucket: 2**(1/4) ≈ 1.189, i.e. ~19% wide
#: buckets — 4 buckets per octave, ~80 buckets across 1 µs .. 1000 s.
DEFAULT_BASE = 2.0 ** 0.25

#: Default smallest resolvable value; everything at or below it lands in
#: the underflow bucket whose upper bound is ``min_value``.
DEFAULT_MIN_VALUE = 1e-6

_LabelKey = Tuple[Tuple[str, str], ...]


class Histogram:
    """One streaming distribution with exact per-bucket counts.

    Bucket ``i`` (``i >= 1``) covers ``(min_value * base**(i-1),
    min_value * base**i]``; bucket ``0`` is the underflow bucket covering
    ``(-inf, min_value]`` (durations are never negative, but a defensive
    clamp keeps bad inputs from throwing in ``math.log``).
    """

    __slots__ = (
        "name",
        "labels",
        "clock",
        "min_value",
        "base",
        "_log_base",
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
        min_value: float = DEFAULT_MIN_VALUE,
        base: float = DEFAULT_BASE,
    ) -> None:
        if min_value <= 0:
            raise ValueError(f"min_value must be positive, got {min_value}")
        if base <= 1.0:
            raise ValueError(f"base must exceed 1.0, got {base}")
        if clock not in ("sim", "wall"):
            raise ValueError(f"clock must be 'sim' or 'wall', got {clock!r}")
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self.clock = clock
        self.min_value = float(min_value)
        self.base = float(base)
        self._log_base = math.log(self.base)
        self._buckets: Dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- recording -----------------------------------------------------

    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        # ceil of log_base(value / min_value); float fuzz nudged so exact
        # bucket boundaries land in the *lower* bucket (bounds inclusive).
        raw = math.log(value / self.min_value) / self._log_base
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

    def record_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

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
            return self.min_value
        return self.min_value * self.base ** index

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


class NullHistogram:
    """Allocation-free no-op histogram (shared singleton)."""

    __slots__ = ()

    enabled = False
    name = ""
    labels: Dict[str, str] = {}
    clock = "sim"
    count = 0
    sum = 0.0
    min = 0.0
    max = 0.0
    mean = 0.0
    p50 = 0.0
    p90 = 0.0
    p99 = 0.0

    def record(self, value: float) -> None:
        return None

    def record_many(self, values: Iterable[float]) -> None:
        return None

    def buckets(self) -> List[Tuple[float, int]]:
        return []

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        return []

    def percentile(self, q: float) -> float:
        return 0.0

    def as_dict(self) -> Dict[str, object]:
        return {"name": "", "labels": {}, "count": 0}

    def __len__(self) -> int:
        return 0


NULL_HISTOGRAM = NullHistogram()


class NullHistogramSet:
    """The disabled histogram registry: every operation is a no-op.

    Instrumentation sites that would compute sample values (durations,
    token sums) must additionally guard on :attr:`enabled`, mirroring the
    :class:`~repro.obs.tracer.NullTracer` contract.
    """

    enabled = False

    def hist(
        self, name: str, clock: str = "sim", **labels: str
    ) -> Union[NullHistogram, Histogram]:
        return NULL_HISTOGRAM

    def get(self, name: str, **labels: str) -> Optional[Histogram]:
        return None

    def all(self) -> List[Histogram]:
        return []

    def total_count(self, name: str) -> int:
        return 0

    def total_sum(self, name: str) -> float:
        return 0.0

    def __iter__(self) -> Iterator[Histogram]:
        return iter(())

    def __len__(self) -> int:
        return 0


#: Process-wide shared null registry; the default ``hist`` sink everywhere.
NULL_HISTOGRAMS = NullHistogramSet()


class HistogramSet(NullHistogramSet):
    """A named registry of histograms keyed by ``(name, labels)``.

    ``hist()`` is get-or-create, so instrumentation sites never need
    registration boilerplate::

        hists.hist("swap_in_seconds", tier="cpu").record(record.duration)

    All histograms created through one set share the same bucketing
    configuration, which makes every same-name histogram mergeable.
    """

    enabled = True

    def __init__(
        self,
        min_value: float = DEFAULT_MIN_VALUE,
        base: float = DEFAULT_BASE,
    ) -> None:
        self._min_value = min_value
        self._base = base
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
                min_value=self._min_value,
                base=self._base,
            )
            self._hists[key] = found
        return found

    def get(self, name: str, **labels: str) -> Optional[Histogram]:
        """Lookup without creating; ``None`` when never recorded."""
        return self._hists.get(self._key(name, labels))

    def all(self) -> List[Histogram]:
        """Every histogram, ordered by (name, labels) for stable export."""
        return [self._hists[key] for key in sorted(self._hists)]

    def named(self, name: str) -> List[Histogram]:
        """All label variants of ``name`` (e.g. one per tier)."""
        return [h for h in self.all() if h.name == name]

    def total_count(self, name: str) -> int:
        """Exact sample count across all label variants of ``name``."""
        return sum(h.count for h in self.named(name))

    def total_sum(self, name: str) -> float:
        """Exact value sum across all label variants of ``name``."""
        return sum(h.sum for h in self.named(name))

    def __iter__(self) -> Iterator[Histogram]:
        return iter(self.all())

    def __len__(self) -> int:
        return len(self._hists)

    def __bool__(self) -> bool:
        """Always truthy: an empty set is still an armed sink."""
        return True

    def __repr__(self) -> str:
        total = sum(h.count for h in self._hists.values())
        return f"HistogramSet(hists={len(self._hists)}, samples={total})"
