"""Figure 13: effect of unified scheduling.

Pensieve with unified prefill+generation batches versus the same engine
scheduling the two phases separately (vLLM-style).  Unifying avoids
executing the prefill phase as its own small-batch kernel invocations, so
it wins on both throughput and latency (§6.5; evaluated on Llama 2-13B /
ShareGPT in the paper).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.engine import PensieveEngine
from repro.experiments.common import RatePoint, format_curve_table, run_rate_sweep
from repro.gpu.device import A100_80GB, GpuSpec
from repro.model.config import LLAMA2_13B, ModelConfig
from repro.workload.dataset import SHAREGPT, DatasetSpec

DEFAULT_RATES = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)


def run_fig13(
    config: ModelConfig = LLAMA2_13B,
    dataset: DatasetSpec = SHAREGPT,
    rates: Sequence[float] = DEFAULT_RATES,
    duration: float = 500.0,
    seed: int = 7,
    spec: GpuSpec = A100_80GB,
    tracer=None,
) -> Dict[str, List[RatePoint]]:
    """Sweep Pensieve with and without unified scheduling."""
    factories = {
        "unified": lambda loop: PensieveEngine(loop, config, spec, unified=True),
        "separate": lambda loop: PensieveEngine(
            loop, config, spec, unified=False, name="Pensieve (separate)"
        ),
    }
    return {
        name: run_rate_sweep(
            factory, dataset, rates, duration=duration, seed=seed,
            tracer=tracer,
        )
        for name, factory in factories.items()
    }


def format_fig13(curves: Dict[str, List[RatePoint]]) -> str:
    parts = ["Figure 13 — unified vs separate prefill/generation scheduling"]
    for name, points in curves.items():
        parts.append(format_curve_table(name, points))
    return "\n".join(parts)
