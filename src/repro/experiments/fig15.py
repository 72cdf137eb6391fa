"""Figure 15: impact of user think time.

Pensieve on Llama 2-13B / ShareGPT with average user think times of 60,
120, 300 and 600 seconds, plus vLLM at 600 s as a comparison point.  The
paper's finding (§6.7): longer think times cause past KV-tokens to drop
from the cache at a higher rate, shrinking (but not erasing) Pensieve's
advantage — even at 600 s Pensieve still beats vLLM.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.engine import PensieveEngine
from repro.experiments.common import RatePoint, format_curve_table, run_rate_sweep
from repro.experiments.fig14 import cache_extras
from repro.gpu.device import A100_80GB, GpuSpec
from repro.model.config import LLAMA2_13B, ModelConfig
from repro.serving.stateless import make_vllm
from repro.workload.dataset import SHAREGPT, DatasetSpec

DEFAULT_RATES = (2.0, 4.0, 6.0, 8.0, 10.0)
DEFAULT_THINK_TIMES = (60.0, 120.0, 300.0, 600.0)


def run_fig15(
    config: ModelConfig = LLAMA2_13B,
    dataset: DatasetSpec = SHAREGPT,
    rates: Sequence[float] = DEFAULT_RATES,
    think_times: Sequence[float] = DEFAULT_THINK_TIMES,
    duration: float = 500.0,
    seed: int = 7,
    spec: GpuSpec = A100_80GB,
    cpu_cache_tokens: int = None,
) -> Dict[str, List[RatePoint]]:
    """Sweep Pensieve across think times, plus the vLLM reference curve.

    ``cpu_cache_tokens`` can shrink the CPU tier so that cache pressure —
    the mechanism behind the think-time sensitivity — shows up at
    benchmark-scale durations.
    """
    curves: Dict[str, List[RatePoint]] = {}
    for think in think_times:
        curves[f"Pensieve think={think:g}s"] = run_rate_sweep(
            lambda loop: PensieveEngine(
                loop, config, spec, cpu_cache_tokens=cpu_cache_tokens
            ),
            dataset,
            rates,
            duration=duration,
            think_time_mean=think,
            seed=seed,
            extras_fn=cache_extras,
        )
    # vLLM reference curves at both extremes, so the *gap* can be compared
    # across think times (the paper plots vLLM at 600 s as the reference).
    for think in (min(think_times), max(think_times)):
        curves[f"vLLM think={think:g}s"] = run_rate_sweep(
            lambda loop: make_vllm(loop, config, spec),
            dataset,
            rates,
            duration=duration,
            think_time_mean=think,
            seed=seed,
        )
    return curves


def format_fig15(curves: Dict[str, List[RatePoint]]) -> str:
    parts = ["Figure 15 — impact of average user think time (Llama 2-13B, ShareGPT)"]
    for name, points in curves.items():
        parts.append(format_curve_table(name, points))
    return "\n".join(parts)
