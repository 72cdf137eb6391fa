"""Bounded retry with exponential backoff on the simulated clock.

Transient faults (GPU allocation hiccups, flaky PCIe transfers) are retried
a bounded number of times; each retry costs simulated time, which engines
charge to the iteration (discrete-event layer) or to the server clock
(functional layer).  Both layers share one budget: :data:`MAX_RETRIES`
retries, waiting :data:`BACKOFFS` seconds before each.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.faults.plan import FaultCounters, FaultPlan, FaultSite
from repro.obs.tracer import Tracer


#: Retries allowed after the first failed attempt.
MAX_RETRIES = 3

#: Simulated seconds before the first retry; each later wait doubles.
BASE_BACKOFF = 0.002

#: The wait before each permitted retry: 2, 4 and 8 ms.
BACKOFFS = tuple(BASE_BACKOFF * 2.0**i for i in range(MAX_RETRIES))


def attempt_with_retries(
    plan: FaultPlan,
    site: FaultSite,
    counters: FaultCounters,
    tracer: Optional[Tracer] = None,
) -> Tuple[bool, int, float]:
    """Draw ``site`` once, retrying up to :data:`MAX_RETRIES` times while
    it keeps failing.

    Returns ``(success, retries_used, backoff_seconds)``: the caller charges
    ``backoff_seconds`` to its clock; on ``False`` the operation failed
    terminally and must enter its degradation path.  ``counters`` gets
    the ladder's accounting — every retry, and an allocation that
    faulted at all — and ``tracer`` per-site retry and
    outcome counters.
    """
    if not plan.fires(site):
        return True, 0, 0.0
    if site is FaultSite.GPU_ALLOC:
        counters.alloc_faults += 1
    retries = 0
    delay = 0.0
    ok = False
    for backoff in BACKOFFS:
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
