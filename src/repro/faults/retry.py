"""Bounded retry with exponential backoff on the simulated clock.

Transient faults (GPU allocation hiccups, flaky PCIe transfers) are retried
a bounded number of times; each retry costs simulated time, which engines
charge to the iteration (discrete-event layer) or to the server clock
(functional layer).  The policy is pure data so both layers share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.faults.plan import FaultCounters, FaultPlan, FaultSite
from repro.obs.tracer import Tracer


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry budget.

    Args:
        max_retries: retries allowed after the first failed attempt.
        base_backoff: simulated seconds before the first retry.
        multiplier: backoff growth factor per retry.
    """

    max_retries: int = 3
    base_backoff: float = 0.002
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_backoff < 0:
            raise ValueError(f"base_backoff must be >= 0, got {self.base_backoff}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")

    def backoffs(self) -> Iterator[float]:
        """Backoff delays, one per permitted retry."""
        delay = self.base_backoff
        for _ in range(self.max_retries):
            yield delay
            delay *= self.multiplier


def attempt_with_retries(
    plan: FaultPlan,
    site: FaultSite,
    policy: RetryPolicy,
    counters: FaultCounters,
    tracer: Optional[Tracer] = None,
) -> Tuple[bool, int, float]:
    """Draw ``site`` once, retrying per ``policy`` while it keeps failing.

    Returns ``(success, retries_used, backoff_seconds)``: the caller charges
    ``backoff_seconds`` to its clock; on ``False`` the operation failed
    terminally and must enter its degradation path.  ``counters`` gets
    the ladder's accounting — every retry, and an allocation or NVMe
    transfer that faulted at all — and ``tracer`` per-site retry and
    outcome counters.
    """
    if not plan.fires(site):
        return True, 0, 0.0
    if site is FaultSite.GPU_ALLOC:
        counters.alloc_faults += 1
    elif site is FaultSite.NVME_STALL:
        counters.nvme_stalls += 1
    retries = 0
    delay = 0.0
    ok = False
    for backoff in policy.backoffs():
        retries += 1
        delay += backoff
        if not plan.fires(site):
            ok = True
            break
    counters.retries += retries
    if tracer is not None:
        tracer.count(f"fault.{site.value}.retries", retries)
        tracer.count(
            f"fault.{site.value}.recovered" if ok
            else f"fault.{site.value}.terminal"
        )
    return ok, retries, delay
