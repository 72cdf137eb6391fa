"""Figure 11: multi-GPU (tensor-parallel) serving performance.

OPT-66B and Llama 2-70B served on 4 GPUs over ShareGPT.  Larger models
amplify Pensieve's advantage (§6.3): compute grows faster than KV size, and
per-GPU CPU memory scales with the GPU count, so relatively more past
KV-tokens fit in cache.  The paper reports 2.04x vLLM / 1.64x
TensorRT-LLM for OPT-66B at 200 ms and 3.0x / 2.47x for Llama 2-70B at
400 ms.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import RatePoint
from repro.experiments.fig10 import format_fig10, run_fig10
from repro.gpu.device import A100_80GB, GpuSpec
from repro.model.config import LLAMA2_70B, OPT_66B, ModelConfig
from repro.workload.dataset import SHAREGPT, DatasetSpec

DEFAULT_RATES = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)

PAPER_LATENCY_TARGETS = {
    "OPT-66B": 0.200,
    "Llama 2-70B": 0.400,
}

PAPER_RATIOS = {
    "OPT-66B": {"vLLM": 2.04, "TensorRT-LLM": 1.64},
    "Llama 2-70B": {"vLLM": 3.0, "TensorRT-LLM": 2.47},
}


def run_fig11(
    config: ModelConfig = OPT_66B,
    dataset: DatasetSpec = SHAREGPT,
    rates: Sequence[float] = DEFAULT_RATES,
    duration: float = 500.0,
    seed: int = 7,
    spec: GpuSpec = A100_80GB,
    systems: Sequence[str] = None,
) -> Dict[str, List[RatePoint]]:
    """Sweep the four systems for one 4-GPU model on ShareGPT."""
    if config.num_gpus < 2:
        raise ValueError(f"{config.name} is not a multi-GPU configuration")
    return run_fig10(
        config=config,
        dataset=dataset,
        rates=rates,
        duration=duration,
        seed=seed,
        spec=spec,
        systems=systems,
    )


def format_fig11(curves: Dict[str, List[RatePoint]], config: ModelConfig) -> str:
    return format_fig10(curves, config, SHAREGPT).replace(
        "Figure 10", "Figure 11"
    ).replace("(1 GPU)", f"({config.num_gpus} GPUs)")
