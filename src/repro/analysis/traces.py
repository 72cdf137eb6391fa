"""Trace- and metrics-derived statistics for serving runs.

All functions take the engine (or its tracer/metrics) *after* a run and
return plain dataclasses, so experiments can log them as rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.gpu.pcie import Direction, PcieEngine
from repro.serving.engine import EngineBase
from repro.serving.metrics import RequestRecord


@dataclass(frozen=True)
class CacheSummary:
    """Aggregate cache behaviour of one run (the §6.6 analysis)."""

    lookup_tokens: int
    gpu_hit_tokens: int
    cpu_hit_tokens: int
    disk_hit_tokens: int
    recomputed_tokens: int
    swapped_out_tokens: int
    dropped_tokens: int

    @property
    def hit_rate(self) -> float:
        """Fraction of looked-up history tokens served from any tier."""
        if self.lookup_tokens == 0:
            return 1.0
        return (
            self.gpu_hit_tokens + self.cpu_hit_tokens + self.disk_hit_tokens
        ) / self.lookup_tokens

    @property
    def cpu_hit_rate(self) -> float:
        if self.lookup_tokens == 0:
            return 0.0
        return self.cpu_hit_tokens / self.lookup_tokens

    @property
    def disk_hit_rate(self) -> float:
        if self.lookup_tokens == 0:
            return 0.0
        return self.disk_hit_tokens / self.lookup_tokens

    @property
    def recompute_rate(self) -> float:
        if self.lookup_tokens == 0:
            return 0.0
        return self.recomputed_tokens / self.lookup_tokens

    def as_dict(self) -> Dict[str, float]:
        return {
            "lookup_tokens": self.lookup_tokens,
            "hit_rate": round(self.hit_rate, 4),
            "cpu_hit_rate": round(self.cpu_hit_rate, 4),
            "disk_hit_rate": round(self.disk_hit_rate, 4),
            "recompute_rate": round(self.recompute_rate, 4),
            "swapped_out_tokens": self.swapped_out_tokens,
            "dropped_tokens": self.dropped_tokens,
        }


def cache_summary(engine: EngineBase) -> CacheSummary:
    """Extract the cache summary from a stateful engine.

    Raises:
        AttributeError: for engines without a cache manager (stateless
            baselines have no cache to summarise).
    """
    stats = engine.manager.stats  # type: ignore[attr-defined]
    return CacheSummary(
        lookup_tokens=stats["lookup_tokens"],
        gpu_hit_tokens=stats["gpu_hit_tokens"],
        cpu_hit_tokens=stats["cpu_hit_tokens"],
        disk_hit_tokens=stats["disk_hit_tokens"],
        recomputed_tokens=stats["recomputed_tokens"],
        swapped_out_tokens=stats["swapped_out_tokens"],
        dropped_tokens=stats["dropped_tokens"],
    )


@dataclass(frozen=True)
class BatchOccupancy:
    """Distribution of batch sizes over a run's iterations."""

    iterations: int
    mean_batch: float
    p50_batch: float
    p90_batch: float
    max_batch: int
    mean_duration: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "iterations": self.iterations,
            "mean_batch": round(self.mean_batch, 2),
            "p50_batch": self.p50_batch,
            "p90_batch": self.p90_batch,
            "max_batch": self.max_batch,
            "mean_iteration_ms": round(self.mean_duration * 1e3, 3),
        }


def batch_occupancy(engine: EngineBase) -> BatchOccupancy:
    """Batch-size statistics from the engine's ``iteration`` spans.

    Requires the run to have been given a recording
    :class:`repro.obs.Tracer` (``engine.set_tracer`` or
    ``run_serving_once(..., tracer=)``).

    Raises:
        ValueError: if no iteration spans were recorded.
    """
    tracer = engine.tracer
    spans = tracer.spans_named("iteration") if tracer.enabled else []
    if not spans:
        raise ValueError(
            "no iteration spans recorded; run the engine with a recording "
            "repro.obs.Tracer"
        )
    sizes = [span.attrs["batch_size"] for span in spans]
    durations = [span.duration for span in spans]
    arr = np.asarray(sizes)
    return BatchOccupancy(
        iterations=len(sizes),
        mean_batch=float(arr.mean()),
        p50_batch=float(np.percentile(arr, 50)),
        p90_batch=float(np.percentile(arr, 90)),
        max_batch=int(arr.max()),
        mean_duration=float(np.mean(durations)),
    )


def pcie_utilization(
    pcie: PcieEngine, duration: float
) -> Dict[str, float]:
    """Host-link utilisation over a run.

    Args:
        pcie: the engine's PCIe transfer engine.
        duration: simulated run length in seconds.

    Returns:
        Busy fractions and bytes moved per direction.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    busy = {Direction.H2D: 0.0, Direction.D2H: 0.0}
    for record in pcie.history:
        busy[record.direction] += record.duration
    return {
        "h2d_busy_fraction": min(1.0, busy[Direction.H2D] / duration),
        "d2h_busy_fraction": min(1.0, busy[Direction.D2H] / duration),
        "h2d_gbytes": pcie.bytes_moved[Direction.H2D] / 1e9,
        "d2h_gbytes": pcie.bytes_moved[Direction.D2H] / 1e9,
        "transfers": len(pcie.history),
    }


def turn_latency_breakdown(
    records: List[RequestRecord],
) -> Dict[int, Dict[str, float]]:
    """Per-turn-index latency statistics.

    The stateless-vs-stateful contrast grows with turn index (longer
    history, more redundant prefill); this breakdown makes that visible.
    """
    by_turn: Dict[int, List[RequestRecord]] = {}
    for record in records:
        by_turn.setdefault(record.turn_index, []).append(record)
    out: Dict[int, Dict[str, float]] = {}
    for turn_index, turn_records in sorted(by_turn.items()):
        norm = [r.normalized_latency for r in turn_records]
        ttft = [r.ttft for r in turn_records]
        out[turn_index] = {
            "count": len(turn_records),
            "mean_norm_latency": float(np.mean(norm)),
            "p90_norm_latency": float(np.percentile(norm, 90)),
            "mean_ttft": float(np.mean(ttft)),
            "mean_history": float(
                np.mean([r.history_tokens for r in turn_records])
            ),
            "mean_prefilled": float(
                np.mean([r.prefilled_tokens for r in turn_records])
            ),
        }
    return out
