"""Chaos tests for the disk tier: three-tier server under fault schedules.

Differential acceptance bar, extending ``test_chaos_server.py`` to the
third tier: a three-tier server with tight GPU *and* CPU memory — so
context is routinely demoted to disk and read back — must produce greedy
outputs bit-identical to a fault-free two-tier server with abundant
memory.  That must hold fault-free (the tier is transparent), under
recoverable disk faults (NVMe stalls retry, checksum-detected disk
corruption falls back to §4.3.4 recompute), and under terminal NVMe
failures (the disk prefix degrades to recompute, never to wrong tokens).
"""

import pytest

from repro.core.server import StatefulChatServer
from repro.faults import FaultPlan, FaultSite
from repro.model.config import tiny_llama_config, tiny_opt_config
from tests.faults.test_chaos_server import (
    CHAOS_SEEDS,
    RECOVERABLE_RATES,
    drive,
    reference_outputs,
)

# The two-tier recoverable menu plus both disk-tier sites.
DISK_RATES = dict(RECOVERABLE_RATES)
DISK_RATES.update({FaultSite.DISK_READ: 0.3, FaultSite.NVME_STALL: 0.4})

TIGHT = dict(
    gpu_capacity_tokens=192,
    cpu_capacity_tokens=96,
    disk_capacity_tokens=4096,
    chunk_size=16,
    page_size=8,
)


def tight_server(config, **kwargs):
    params = dict(TIGHT, seed=0)
    params.update(kwargs)
    return StatefulChatServer(config, **params)


def assert_disk_was_exercised(server, allow_faulted_reads=False):
    """The workload demoted context to disk and restores touched it.

    With ``allow_faulted_reads``, a run whose every disk read was faulted
    (corrupted or terminally stalled) before promotion still counts — the
    reads happened, they just all fell back to recompute.
    """
    stats = server.manager.stats
    assert stats["demoted_tokens"] > 0, "workload never reached the disk tier"
    read_back = stats["disk_hit_tokens"] > 0
    if allow_faulted_reads:
        fc = server.fault_counters
        read_back = read_back or fc.corrupted_chunks > 0 or fc.disk_read_failures > 0
    assert read_back, "no restore ever read the disk tier"


class TestTransparentTier:
    def test_fault_free_three_tier_matches_two_tier(self):
        """With no faults at all, squeezing context through the disk tier
        must be invisible in the outputs."""
        config = tiny_llama_config()
        ref = reference_outputs(config)
        server = tight_server(config)
        assert drive(server, config) == ref
        assert_disk_was_exercised(server)


class TestDifferentialUnderDiskFaults:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_outputs_identical_under_recoverable_disk_faults(self, seed):
        config = tiny_llama_config()
        ref = reference_outputs(config)
        plan = FaultPlan(seed=seed, rates=DISK_RATES)
        server = tight_server(config, fault_plan=plan)
        assert drive(server, config) == ref
        assert sum(plan.fired.values()) > 0
        assert server.fault_counters.degraded_requests == 0
        assert_disk_was_exercised(server, allow_faulted_reads=True)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_opt_architecture_identical_too(self, seed):
        config = tiny_opt_config()
        ref = reference_outputs(config, turns=6, convs=3)
        plan = FaultPlan(seed=seed, rates=DISK_RATES)
        server = tight_server(config, fault_plan=plan)
        assert drive(server, config, turns=6, convs=3) == ref
        assert server.fault_counters.degraded_requests == 0

    def test_absorbed_nvme_stall_counts_once(self):
        """One stalled disk read, retried once and recovered: one retry
        and one ``nvme_stalls``, as the simulated engine counts it."""
        config = tiny_llama_config()
        ref = reference_outputs(config)
        plan = FaultPlan(seed=0, schedules={FaultSite.NVME_STALL: (0,)})
        server = tight_server(config, fault_plan=plan)
        assert drive(server, config) == ref
        counters = server.fault_counters
        assert (counters.retries, counters.nvme_stalls) == (1, 1)
        assert counters.disk_read_failures == counters.degraded_requests == 0
        assert_disk_was_exercised(server)

    def test_terminal_nvme_stall_falls_back_to_recompute(self):
        """Exhausting the NVMe retry budget invalidates the disk prefix
        and recomputes it — degraded latency, identical tokens."""
        config = tiny_llama_config()
        ref = reference_outputs(config)
        # The retry budget is 3 retries: four consecutive draws
        # make the first disk read terminally fail.
        plan = FaultPlan(seed=0, schedules={FaultSite.NVME_STALL: (0, 1, 2, 3)})
        server = tight_server(config, fault_plan=plan)
        assert drive(server, config) == ref
        assert server.fault_counters.disk_read_failures == 1
        assert server.fault_counters.recompute_fallbacks >= 1
        assert server.fault_counters.degraded_requests == 0
        assert_disk_was_exercised(server)


class TestDiskCorruptionRecovery:
    def test_checksum_detects_and_recovers(self):
        """Corrupt disk chunks are reported, counted, and recovered via
        recompute — never silently served."""
        config = tiny_llama_config()
        ref = reference_outputs(config)
        plan = FaultPlan(seed=2, rates={FaultSite.DISK_READ: 0.5})
        server = tight_server(config, fault_plan=plan)
        assert drive(server, config) == ref
        assert server.fault_counters.corrupted_chunks > 0
        assert server.fault_counters.recompute_fallbacks > 0
        assert server.fault_counters.degraded_requests == 0
        assert_disk_was_exercised(server)

    def test_mixed_cpu_and_disk_corruption(self):
        """Corruption on both stored tiers at once still recovers to
        bit-identical outputs (the recompute prefix covers whichever
        corrupt chunk sits lowest in the sequence)."""
        config = tiny_llama_config()
        ref = reference_outputs(config)
        plan = FaultPlan(
            seed=5,
            rates={FaultSite.CPU_READ: 0.4, FaultSite.DISK_READ: 0.4},
        )
        server = tight_server(config, fault_plan=plan)
        assert drive(server, config) == ref
        assert server.fault_counters.corrupted_chunks > 0
        assert server.fault_counters.degraded_requests == 0
