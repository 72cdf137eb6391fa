"""Figure 15 extension (fig15x): extreme think times with a disk tier.

The paper's Figure 15 stops at 600 s of average user think time, where
past KV-tokens drop from the two-tier cache at a high enough rate to
shrink Pensieve's advantage.  This extension pushes think time past the
paper's range — the long-idle-user regime where even the CPU tier cannot
hold parked conversations — and compares the two-tier system against the
three-tier stack, which demotes cold context to an NVMe-modeled disk
store (value-ordered: a demotion displaces only lower-scored disk chunks)
instead of dropping it.

The hypothesis being measured: as think time grows, the two-tier curve
degrades toward stateless recompute while the three-tier curve holds its
hit rate, at the price of NVMe read traffic on every return turn.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.traces import cache_summary
from repro.core.engine import PensieveEngine
from repro.experiments.common import RatePoint, format_curve_table, run_rate_sweep
from repro.gpu.device import A100_80GB, GpuSpec
from repro.gpu.link import Direction
from repro.model.config import LLAMA2_13B, ModelConfig
from repro.serving.engine import EngineBase
from repro.workload.dataset import SHAREGPT, DatasetSpec

DEFAULT_RATES = (2.0, 4.0, 6.0)
#: Beyond the paper's 600 s ceiling: half an hour and two hours of idle.
DEFAULT_THINK_TIMES = (600.0, 1800.0, 7200.0)


def disk_extras(engine: EngineBase) -> Dict[str, float]:
    """Cache and NVMe statistics for one finished three-tier run (the
    rates are :func:`~repro.analysis.traces.cache_summary`'s)."""
    summary = cache_summary(engine)
    extras = {
        "hit_rate": summary.hit_rate,
        "disk_hit_rate": summary.disk_hit_rate,
        "demoted_tokens": engine.manager.stats["demoted_tokens"],
        "recomputed_tokens": summary.recomputed_tokens,
    }
    nvme = getattr(engine, "nvme", None)
    if nvme is not None:
        extras["nvme_read_gb"] = nvme.bytes_moved[Direction.READ] / 1e9
        extras["nvme_write_gb"] = nvme.bytes_moved[Direction.WRITE] / 1e9
    return extras


def run_fig15x(
    config: ModelConfig = LLAMA2_13B,
    dataset: DatasetSpec = SHAREGPT,
    rates: Sequence[float] = DEFAULT_RATES,
    think_times: Sequence[float] = DEFAULT_THINK_TIMES,
    duration: float = 500.0,
    seed: int = 7,
    spec: GpuSpec = A100_80GB,
    cpu_cache_tokens: Optional[int] = None,
    disk_cache_tokens: Optional[int] = None,
    tracer=None,
) -> Dict[str, List[RatePoint]]:
    """Sweep two-tier vs three-tier Pensieve across extreme think times.

    ``cpu_cache_tokens`` can shrink the CPU tier so that the pressure the
    experiment is about shows up at benchmark-scale durations;
    ``disk_cache_tokens`` sizes the third tier (default: effectively
    unbounded, since NVMe capacity dwarfs DRAM).
    """
    if disk_cache_tokens is None:
        disk_cache_tokens = 1 << 22
    curves: Dict[str, List[RatePoint]] = {}
    for think in think_times:
        curves[f"two-tier think={think:g}s"] = run_rate_sweep(
            lambda loop: PensieveEngine(
                loop, config, spec, cpu_cache_tokens=cpu_cache_tokens
            ),
            dataset,
            rates,
            duration=duration,
            think_time_mean=think,
            seed=seed,
            extras_fn=disk_extras,
            tracer=tracer,
        )
        curves[f"three-tier think={think:g}s"] = run_rate_sweep(
            lambda loop: PensieveEngine(
                loop,
                config,
                spec,
                cpu_cache_tokens=cpu_cache_tokens,
                disk_cache_tokens=disk_cache_tokens,
            ),
            dataset,
            rates,
            duration=duration,
            think_time_mean=think,
            seed=seed,
            extras_fn=disk_extras,
            tracer=tracer,
        )
    return curves


def format_fig15x(curves: Dict[str, List[RatePoint]]) -> str:
    parts = [
        "Figure 15x — extreme think times, two-tier vs three-tier "
        "(Llama 2-13B, ShareGPT)"
    ]
    for name, points in curves.items():
        parts.append(format_curve_table(name, points))
    return "\n".join(parts)
