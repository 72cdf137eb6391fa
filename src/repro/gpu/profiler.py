"""Offline attention-cost profiling for the eviction policy.

The retention value of a cached chunk is ``V = Cost(s, l) / T`` (§4.3.1),
where ``Cost(s, l) = Cost_attention(s, l) + Cost_other(s)``.  Because
eviction decisions are made for fixed-size chunks, the paper simplifies
this to ``Cost(l) = Cost_attention(l) + c``, measures ``Cost_attention`` at
power-of-two context sizes offline, and linearly interpolates at runtime.

:class:`OfflineProfiler` reproduces that procedure against any *measure
function* — in this repository either the analytical cost model (for the
performance layer) or wall-clock timing of the numpy kernels (used by the
profiler's own tests, proving the interpolation machinery is measurement-
agnostic).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.gpu.costmodel import CostModel
from repro.kvcache.manager import CHUNK_SIZE


@dataclass(frozen=True)
class AttentionCostProfile:
    """Piecewise-linear attention-cost table for a fixed chunk size.

    Attributes:
        chunk_size: number of tokens per chunk.
        context_sizes: sorted profiled context sizes (powers of two).
        costs: measured attention cost at each profiled context size.
        constant_cost: the constant ``c`` capturing non-attention cost for
            one chunk.
    """

    chunk_size: int
    context_sizes: Tuple[int, ...]
    costs: Tuple[float, ...]
    constant_cost: float

    def __post_init__(self) -> None:
        if len(self.context_sizes) != len(self.costs):
            raise ValueError("context_sizes and costs must have equal length")
        if len(self.context_sizes) < 2:
            raise ValueError("need at least two profiled points to interpolate")
        if list(self.context_sizes) != sorted(self.context_sizes):
            raise ValueError("context_sizes must be sorted ascending")

    def attention_cost(self, context_len: int) -> float:
        """Interpolated attention cost for a chunk attending ``context_len``.

        Linear interpolation between the two nearest profiled sizes; linear
        extrapolation from the last segment beyond the profiled range (the
        true cost is asymptotically linear in context size, Figure 4).
        """
        if context_len < 0:
            raise ValueError(f"context_len must be non-negative, got {context_len}")
        sizes, costs = self.context_sizes, self.costs
        if context_len <= sizes[0]:
            # Interpolate toward (0, 0): attention over an empty context is free.
            return costs[0] * context_len / sizes[0]
        if context_len >= sizes[-1]:
            slope = (costs[-1] - costs[-2]) / (sizes[-1] - sizes[-2])
            return costs[-1] + slope * (context_len - sizes[-1])
        hi = bisect.bisect_left(sizes, context_len)
        lo = hi - 1
        frac = (context_len - sizes[lo]) / (sizes[hi] - sizes[lo])
        return costs[lo] + frac * (costs[hi] - costs[lo])

    def recompute_cost(self, context_len: int) -> float:
        """Full recomputation cost of one chunk: attention + constant."""
        return self.attention_cost(context_len) + self.constant_cost


class OfflineProfiler:
    """Builds :class:`AttentionCostProfile` tables by offline measurement.

    Args:
        measure_attention: callable ``(chunk_size, context_len) -> seconds``.
        measure_constant: callable ``(chunk_size) -> seconds`` for the
            non-attention cost of one chunk.
    """

    def __init__(
        self,
        measure_attention: Callable[[int, int], float],
        measure_constant: Callable[[int], float],
    ) -> None:
        self._measure_attention = measure_attention
        self._measure_constant = measure_constant

    @classmethod
    def from_cost_model(cls, cost_model: CostModel) -> "OfflineProfiler":
        """Profiler backed by the analytical roofline model."""
        return cls(
            measure_attention=cost_model.attention_chunk_time,
            measure_constant=cost_model.non_attention_chunk_time,
        )

    def profile(
        self,
        chunk_size: int = CHUNK_SIZE,
        max_context: int = 16384,
        context_sizes: Sequence[int] = (),
    ) -> AttentionCostProfile:
        """Measure at power-of-two context sizes up to ``max_context``.

        Args:
            chunk_size: tokens per chunk.
            max_context: largest context size to profile.
            context_sizes: explicit sizes overriding the power-of-two sweep.
        """
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        sizes: List[int] = list(context_sizes)
        if not sizes:
            size = chunk_size
            while size <= max_context:
                sizes.append(size)
                size *= 2
        if len(sizes) < 2:
            raise ValueError(
                f"max_context={max_context} yields fewer than two profile points"
            )
        costs = tuple(self._measure_attention(chunk_size, s) for s in sizes)
        constant = self._measure_constant(chunk_size)
        return AttentionCostProfile(
            chunk_size=chunk_size,
            context_sizes=tuple(sizes),
            costs=costs,
            constant_cost=constant,
        )
