"""Chaos tests: the serving simulation under seeded fault schedules.

The simulated Pensieve engine must keep scheduling through injected
PCIe-transfer failures, transient allocation faults, host-side
corruption and multi-GPU worker stalls: recoverable faults cost
simulated time (retries, recompute) but never correctness, and terminal
faults degrade individual requests while the batch keeps running.
"""

import dataclasses

import pytest

from repro.core.engine import PensieveEngine
from repro.experiments.common import run_serving_once
from repro.faults import FaultCounters, FaultPlan, FaultSite
from repro.gpu.device import A100_80GB
from repro.model.config import PAPER_MODELS
from repro.serving.request import RequestState
from repro.workload.dataset import SHAREGPT, generate_workload

CHAOS_SEEDS = [0, 1, 2]

RATES = {
    FaultSite.SWAP_IN: 0.15,
    FaultSite.SWAP_OUT: 0.15,
    FaultSite.GPU_ALLOC: 0.05,
    FaultSite.CPU_READ: 0.1,
    FaultSite.WORKER_STEP: 0.02,
}


def pressured_spec(config, gpu_tokens=4096, cpu_tokens=16384):
    """Shrink the KV reservation so swapping actually happens."""
    kv = config.kv_bytes_per_token
    return dataclasses.replace(
        A100_80GB,
        kv_cache_bytes=gpu_tokens * kv,
        cpu_memory_bytes=cpu_tokens * kv,
    )


def run_chaotic(config, plan, spec=None, rate=6.0, duration=60.0, **engine_kwargs):
    spec = spec or pressured_spec(config)
    conversations = generate_workload(
        SHAREGPT,
        request_rate=rate,
        duration=duration,
        think_time_mean=10.0,
        seed=7,
    )
    return run_serving_once(
        lambda loop: PensieveEngine(
            loop, config, spec, fault_plan=plan, **engine_kwargs
        ),
        conversations,
        until=duration,
        warmup=duration * 0.2,
    )


class TestEngineUnderFaults:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_run_completes_and_audit_holds(self, seed):
        config = PAPER_MODELS["OPT-13B"]
        plan = FaultPlan(seed=seed, rates=RATES)
        engine, stats = run_chaotic(config, plan)
        assert stats.num_requests > 0
        assert sum(plan.fired.values()) > 0
        engine.manager._audit()

    def test_faults_cost_time_not_throughput_collapse(self):
        config = PAPER_MODELS["OPT-13B"]
        quiet_engine, quiet = run_chaotic(config, FaultPlan(seed=0))
        chaotic_engine, chaotic = run_chaotic(
            config, FaultPlan(seed=3, rates=RATES)
        )
        assert chaotic_engine.metrics.faults != FaultCounters()
        # Recoverable faults degrade latency/throughput, within reason.
        assert chaotic.num_requests >= 0.5 * quiet.num_requests
        assert quiet_engine.metrics.faults == FaultCounters()

    def test_swap_sites_fire_under_pressure(self):
        config = PAPER_MODELS["OPT-13B"]
        plan = FaultPlan(seed=3, rates=RATES)
        engine, _ = run_chaotic(config, plan)
        counters = engine.metrics.faults
        assert counters.swap_out_failures > 0
        assert counters.retries > 0
        engine.manager._audit()

    def test_worker_stalls_only_with_multiple_gpus(self):
        single = PAPER_MODELS["OPT-13B"]   # 1 GPU
        multi = PAPER_MODELS["OPT-66B"]    # tensor-parallel
        assert multi.num_gpus > 1
        stall_rates = {FaultSite.WORKER_STEP: 0.1}
        engine_1, _ = run_chaotic(single, FaultPlan(seed=0, rates=stall_rates))
        engine_n, _ = run_chaotic(
            multi, FaultPlan(seed=0, rates=stall_rates),
            spec=pressured_spec(multi),
        )
        assert engine_1.metrics.faults.worker_stalls == 0
        assert engine_n.metrics.faults.worker_stalls > 0

    def test_terminal_alloc_degrades_requests_individually(self):
        config = PAPER_MODELS["OPT-13B"]
        # Four consecutive allocation faults outlast the three retries, so
        # each run of four fails one allocation terminally: the per-token
        # gate means those requests fail individually while most still
        # finish.
        terminal = {start + k for start in (4000, 8000, 12000) for k in range(4)}
        plan = FaultPlan(seed=5, schedules={FaultSite.GPU_ALLOC: terminal})
        engine, stats = run_chaotic(config, plan)
        assert engine.num_failed > 0
        assert engine.metrics.faults.degraded_requests == engine.num_failed
        assert all(r.state is RequestState.FAILED for r in engine.failed)
        assert stats.num_requests > 0  # the batch kept going
        engine.manager._audit()
        # Failed requests are out of the scheduler entirely.
        failed_ids = {r.request_id for r in engine.failed}
        assert failed_ids.isdisjoint({r.request_id for r in engine.running})

    def test_deterministic_given_seed(self):
        config = PAPER_MODELS["OPT-13B"]
        runs = []
        for _ in range(2):
            plan = FaultPlan(seed=9, rates=RATES)
            engine, stats = run_chaotic(config, plan)
            runs.append(
                (stats.num_requests, engine.metrics.faults.as_dict(), engine.num_failed)
            )
        assert runs[0] == runs[1]
