"""Deterministic fault injection and graceful-degradation support.

The serving stack assumes by default that every PCIe transfer, page
allocation and worker step succeeds.  This package makes failure a
first-class, *reproducible* input: a seeded :class:`FaultPlan` schedules
failures at well-defined injection sites, and the cache manager, both
engines and the CPU store recover along a fixed ladder —

    retry (three retries, bounded backoff)  →  swap-in falls back to
    recomputation (§4.3.4)  →  the single affected request fails with a
    structured error while the batch continues.

The retry budget is one set of constants in :mod:`repro.faults.retry`,
shared by both executors; no engine or server takes it as a setting.

The :class:`FaultSite` enum is the one declaration of the injection
sites: its order fixes each site's RNG stream, and
:attr:`FaultSite.rate_scale` scales a uniform ``--fault-rate`` per site.
See ``ARCHITECTURE.md`` ("Fault model & degradation paths") for the full
site/recovery matrix.
"""

from repro.faults.errors import (
    ChunkCorruptionError,
    FaultError,
    RequestFaultedError,
)
from repro.faults.plan import FaultCounters, FaultPlan, FaultSite
from repro.faults.retry import attempt_with_retries

__all__ = [
    "ChunkCorruptionError",
    "FaultCounters",
    "FaultError",
    "FaultPlan",
    "FaultSite",
    "RequestFaultedError",
    "attempt_with_retries",
]
