"""Deterministic fault-injection plans.

A :class:`FaultPlan` decides, at each *injection site*, whether the next
operation there fails.  Decisions are a pure function of the plan's seed
and the per-site occurrence counter, so a chaos run is exactly
reproducible: the same seed yields the same failure schedule regardless of
wall-clock time, and each site draws from an independent random stream so
injecting faults at one site never perturbs another site's schedule.

Two scheduling mechanisms compose:

- **rates**: every occurrence at a site fails independently with the
  configured probability (drawn from the site's seeded stream);
- **schedules**: explicit occurrence indices that fail unconditionally
  (index 0 is the first operation at that site) — the tool of choice for
  tests that need a failure at an exact point.

``max_failures`` caps the total failures a site may inject, which lets
chaos tests guarantee that bounded-retry recovery eventually succeeds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional

import numpy as np


class FaultSite(enum.Enum):
    """Where a fault can be injected."""

    SWAP_IN = "swap_in"          #: PCIe H2D transfer (KV retrieval).
    SWAP_OUT = "swap_out"        #: PCIe D2H transfer (ahead-of-time copy).
    GPU_ALLOC = "gpu_alloc"      #: GPU page/slot allocation.
    CPU_READ = "cpu_read"        #: CPU-store read (checksum corruption).
    WORKER_STEP = "worker_step"  #: one worker's iteration (multi-GPU stall).
    # New sites are appended so earlier sites keep their derived RNG
    # streams (``[seed, ordinal]``) and existing chaos schedules replay
    # bit-identically.
    DISK_READ = "disk_read"      #: disk-store read (checksum corruption).
    NVME_STALL = "nvme_stall"    #: NVMe transfer stall (disk-tier I/O).


class FaultPlan:
    """A seeded, deterministic schedule of injected failures.

    Args:
        seed: root seed; each site derives an independent stream from it.
        rates: per-site independent failure probability (unlisted sites
            never fail by rate).
        schedules: per-site occurrence indices that fail unconditionally.
        max_failures: per-site cap on injected failures (``None`` = no cap).
        stall_seconds: duration of one injected worker stall (§4.4.2 path).
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Mapping[FaultSite, float]] = None,
        schedules: Optional[Mapping[FaultSite, Iterable[int]]] = None,
        max_failures: Optional[Mapping[FaultSite, int]] = None,
        stall_seconds: float = 0.05,
    ) -> None:
        rates = dict(rates or {})
        for site, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {site} must be in [0, 1], got {rate}")
        if stall_seconds < 0:
            raise ValueError(f"stall_seconds must be >= 0, got {stall_seconds}")
        self.seed = seed
        self.rates = rates
        self.schedules: Dict[FaultSite, FrozenSet[int]] = {
            site: frozenset(idx) for site, idx in (schedules or {}).items()
        }
        self.max_failures: Dict[FaultSite, int] = dict(max_failures or {})
        self.stall_seconds = stall_seconds
        sites = list(FaultSite)
        self._rng = {
            site: np.random.default_rng([seed, ordinal])
            for ordinal, site in enumerate(sites)
        }
        #: Operations seen per site (the occurrence counter).
        self.occurrences: Dict[FaultSite, int] = {s: 0 for s in sites}
        #: Failures injected per site.
        self.fired: Dict[FaultSite, int] = {s: 0 for s in sites}

    @classmethod
    def quiet(cls, seed: int = 0) -> "FaultPlan":
        """A plan that never injects anything (useful as a default)."""
        return cls(seed=seed)

    def fires(self, site: FaultSite) -> bool:
        """Consume one occurrence at ``site``; True when it must fail.

        The site's random stream is advanced on *every* call, so adding or
        removing an explicit schedule entry never shifts the rate-driven
        part of the plan.
        """
        index = self.occurrences[site]
        self.occurrences[site] = index + 1
        draw = float(self._rng[site].random())
        cap = self.max_failures.get(site)
        if cap is not None and self.fired[site] >= cap:
            return False
        fire = index in self.schedules.get(site, ()) or draw < self.rates.get(
            site, 0.0
        )
        if fire:
            self.fired[site] += 1
        return fire

    @property
    def total_fired(self) -> int:
        return sum(self.fired.values())

    def __repr__(self) -> str:
        fired = {s.value: n for s, n in self.fired.items() if n}
        return f"FaultPlan(seed={self.seed}, fired={fired})"


@dataclass
class FaultCounters:
    """Recovery-level fault accounting (surfaced by serving metrics).

    Counts *what the system did about* injected faults, as opposed to
    :attr:`FaultPlan.fired` which counts the raw injections:

    - ``swap_in_failures`` / ``swap_out_failures``: PCIe transfers that
      failed terminally (after retries);
    - ``alloc_faults``: GPU allocation attempts that faulted at least once;
    - ``corrupted_chunks``: CPU- or disk-store chunks caught by checksum;
    - ``recompute_fallbacks``: restores that fell back to the §4.3.4
      recomputation path after a failed/corrupt swap-in;
    - ``retries``: individual retry attempts across all sites;
    - ``degraded_requests``: requests that failed individually after
      exhausting their retry budget (the batch continued without them);
    - ``worker_stalls``: injected multi-GPU worker stalls absorbed;
    - ``nvme_stalls``: injected NVMe transfer stalls absorbed (retried
      in the functional server, modeled as added latency in the engine);
    - ``disk_read_failures``: disk-tier reads that failed terminally
      (after retries) and degraded the disk prefix to recompute.
    """

    swap_in_failures: int = 0
    swap_out_failures: int = 0
    alloc_faults: int = 0
    corrupted_chunks: int = 0
    recompute_fallbacks: int = 0
    retries: int = 0
    degraded_requests: int = 0
    worker_stalls: int = 0
    nvme_stalls: int = 0
    disk_read_failures: int = 0
    _extra: Dict[str, int] = field(default_factory=dict, repr=False)

    def as_dict(self) -> Dict[str, int]:
        return {
            "swap_in_failures": self.swap_in_failures,
            "swap_out_failures": self.swap_out_failures,
            "alloc_faults": self.alloc_faults,
            "corrupted_chunks": self.corrupted_chunks,
            "recompute_fallbacks": self.recompute_fallbacks,
            "retries": self.retries,
            "degraded_requests": self.degraded_requests,
            "worker_stalls": self.worker_stalls,
            "nvme_stalls": self.nvme_stalls,
            "disk_read_failures": self.disk_read_failures,
        }

    def bump(self, counter: str) -> None:
        """Increment the counter named ``counter`` (table-driven ladders)."""
        setattr(self, counter, getattr(self, counter) + 1)

    @property
    def total(self) -> int:
        return sum(self.as_dict().values())
