"""The declared fault-site registry: the single source of truth.

Every injection site the fault plan can draw has exactly one entry here,
carrying the storage/transfer *tier* it models and the default rate scale
the CLI applies when ``--fault-seed`` arms a uniform ``--fault-rate``
(checksum-style sites historically run at a quarter of the transfer
rate).  Consumers must look sites up through :data:`SITES` (or the
:class:`~repro.faults.plan.FaultSite` enum it mirrors) instead of
re-declaring string literals.  This registry and the enum agree
member-for-member, in order, or the module fails at import (below), so
a drift cannot even load; an undeclared ``FaultSite.<NAME>`` or
``FaultSite("name")`` raises where it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.faults.plan import FaultSite

__all__ = ["SITES", "SiteSpec", "site_names"]


@dataclass(frozen=True)
class SiteSpec:
    """One declared injection site.

    Attributes:
        name: the wire name (== ``FaultSite.value``).
        tier: which modeled component the fault lives in
            (``pcie`` / ``gpu`` / ``cpu`` / ``worker`` / ``disk`` /
            ``nvme``).
        rate_scale: multiplier applied to a uniform ``--fault-rate``
            when the CLI builds a plan (corruption-style sites run
            quieter than transfer-style sites).
        description: one-line human summary.
    """

    name: str
    tier: str
    rate_scale: float
    description: str


#: Declared sites, keyed by wire name, in enum declaration order (new
#: sites are appended so seeded RNG streams stay stable — see
#: :class:`~repro.faults.plan.FaultSite`).
SITES: Dict[str, SiteSpec] = {
    "swap_in": SiteSpec(
        "swap_in", "pcie", 1.0, "PCIe H2D transfer (KV retrieval)"
    ),
    "swap_out": SiteSpec(
        "swap_out", "pcie", 1.0, "PCIe D2H transfer (ahead-of-time copy)"
    ),
    "gpu_alloc": SiteSpec(
        "gpu_alloc", "gpu", 1.0, "GPU page/slot allocation"
    ),
    "cpu_read": SiteSpec(
        "cpu_read", "cpu", 0.25, "CPU-store read (checksum corruption)"
    ),
    "worker_step": SiteSpec(
        "worker_step", "worker", 0.25, "one worker's iteration (stall)"
    ),
    "disk_read": SiteSpec(
        "disk_read", "disk", 0.25, "disk-store read (checksum corruption)"
    ),
    "nvme_stall": SiteSpec(
        "nvme_stall", "nvme", 1.0, "NVMe transfer stall (disk-tier I/O)"
    ),
}


def site_names() -> Tuple[str, ...]:
    """Declared wire names, in registration (= enum) order."""
    return tuple(SITES)


def _check_registry_matches_enum() -> None:
    declared = tuple(SITES)
    members = tuple(site.value for site in FaultSite)
    if declared != members:
        raise RuntimeError(
            "fault-site registry drifted from the FaultSite enum: "
            f"registry={declared}, enum={members}"
        )
    for name, spec in SITES.items():
        if spec.name != name:
            raise RuntimeError(
                f"fault-site registry key {name!r} carries spec.name "
                f"{spec.name!r}"
            )


_check_registry_matches_enum()
