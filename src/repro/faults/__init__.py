"""Deterministic fault injection and graceful-degradation support.

The serving stack assumes by default that every PCIe transfer, page
allocation and worker step succeeds.  This package makes failure a
first-class, *reproducible* input: a seeded :class:`FaultPlan` schedules
failures at well-defined injection sites, and the cache manager, both
engines and the CPU store recover along a fixed ladder —

    retry (bounded backoff)  →  swap-in falls back to recomputation
    (§4.3.4)  →  the single affected request fails with a structured
    error while the batch continues.

See ``ARCHITECTURE.md`` ("Fault model & degradation paths") for the full
site/recovery matrix.
"""

from repro.faults.errors import (
    ChunkCorruptionError,
    FaultError,
    RequestFaultedError,
)
from repro.faults.plan import FaultCounters, FaultPlan, FaultSite
from repro.faults.retry import RetryPolicy, attempt_with_retries
from repro.faults.sites import SITES, SiteSpec, site_names

__all__ = [
    "ChunkCorruptionError",
    "FaultCounters",
    "FaultError",
    "FaultPlan",
    "FaultSite",
    "RequestFaultedError",
    "RetryPolicy",
    "SITES",
    "SiteSpec",
    "attempt_with_retries",
    "site_names",
]
