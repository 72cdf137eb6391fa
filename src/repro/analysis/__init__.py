"""Post-hoc analysis of serving runs.

Utilities that turn an engine's :class:`~repro.obs.Tracer` spans and
metrics into the derived quantities the paper quotes from its
"execution trace" analysis (§6.6): cache hit-rate timelines, batch
occupancy, PCIe utilisation, suspension counts, and per-turn latency
breakdowns.
"""

from repro.analysis.traces import (
    BatchOccupancy,
    CacheSummary,
    batch_occupancy,
    cache_summary,
    pcie_utilization,
    turn_latency_breakdown,
)
from repro.analysis.curves import (
    crossover_rate,
    curve_dominates,
    speedup_at,
)

__all__ = [
    "cache_summary",
    "CacheSummary",
    "batch_occupancy",
    "BatchOccupancy",
    "pcie_utilization",
    "turn_latency_breakdown",
    "speedup_at",
    "curve_dominates",
    "crossover_rate",
]
