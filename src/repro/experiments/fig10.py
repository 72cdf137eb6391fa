"""Figure 10: single-GPU end-to-end serving performance.

Latency–throughput curves for four systems — vLLM, TensorRT-LLM, Pensieve
and Pensieve (GPU cache) — on OPT-13B and Llama 2-13B over ShareGPT and
UltraChat, plus the headline throughput ratios at the paper's latency
targets (e.g. OPT-13B/ShareGPT at 120 ms per token: Pensieve = 1.36x vLLM,
1.14x TensorRT-LLM).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.engine import PensieveEngine
from repro.gpu.device import A100_80GB, GpuSpec
from repro.model.config import LLAMA2_13B, OPT_13B, ModelConfig
from repro.serving.stateless import make_tensorrt_llm, make_vllm
from repro.experiments.common import (
    RatePoint,
    format_curve_table,
    run_rate_sweep,
    throughput_at_latency,
)
from repro.workload.dataset import SHAREGPT, ULTRACHAT, DatasetSpec

DEFAULT_RATES = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)

#: Latency targets (seconds/token) at which the paper reports ratios.
PAPER_LATENCY_TARGETS = {
    ("OPT-13B", "ShareGPT"): 0.120,
    ("Llama 2-13B", "ShareGPT"): 0.180,
    ("OPT-13B", "UltraChat"): 0.120,
    ("Llama 2-13B", "UltraChat"): 0.100,
}

#: The paper's reported Pensieve/baseline throughput ratios.
PAPER_RATIOS = {
    ("OPT-13B", "ShareGPT"): {"vLLM": 1.36, "TensorRT-LLM": 1.14},
    ("Llama 2-13B", "ShareGPT"): {"vLLM": 1.70, "TensorRT-LLM": 1.58},
    ("OPT-13B", "UltraChat"): {"vLLM": 1.17, "TensorRT-LLM": 1.14},
    ("Llama 2-13B", "UltraChat"): {"vLLM": 1.58, "TensorRT-LLM": 1.47},
}


def system_factories(config: ModelConfig, spec: GpuSpec = A100_80GB) -> Dict[str, object]:
    """The four Figure 10/11 systems, as engine factories."""
    return {
        "vLLM": lambda loop: make_vllm(loop, config, spec),
        "TensorRT-LLM": lambda loop: make_tensorrt_llm(loop, config, spec),
        "Pensieve": lambda loop: PensieveEngine(loop, config, spec),
        "Pensieve (GPU cache)": lambda loop: PensieveEngine(
            loop, config, spec, cpu_cache_tokens=0
        ),
    }


def run_fig10(
    config: ModelConfig = OPT_13B,
    dataset: DatasetSpec = SHAREGPT,
    rates: Sequence[float] = DEFAULT_RATES,
    duration: float = 500.0,
    seed: int = 7,
    spec: GpuSpec = A100_80GB,
    systems: Optional[Sequence[str]] = None,
    think_time_mean: float = 60.0,
) -> Dict[str, List[RatePoint]]:
    """Sweep all systems on one (model, dataset) panel of Figure 10."""
    factories = system_factories(config, spec)
    if systems is not None:
        factories = {name: factories[name] for name in systems}
    curves: Dict[str, List[RatePoint]] = {}
    for name, factory in factories.items():
        curves[name] = run_rate_sweep(
            factory, dataset, rates, duration=duration, seed=seed,
            think_time_mean=think_time_mean,
        )
    return curves


def headline_ratios(
    curves: Dict[str, List[RatePoint]],
    latency_target: float,
) -> Dict[str, float]:
    """Pensieve's throughput ratio over each baseline at the target."""
    pensieve = throughput_at_latency(curves["Pensieve"], latency_target)
    ratios: Dict[str, float] = {}
    for name, points in curves.items():
        if name == "Pensieve":
            continue
        base = throughput_at_latency(points, latency_target)
        ratios[name] = pensieve / base if base > 0 else float("inf")
    return ratios


def format_fig10(
    curves: Dict[str, List[RatePoint]],
    config: ModelConfig,
    dataset: DatasetSpec,
) -> str:
    parts = [f"Figure 10 — {config.name} on {dataset.name} (1 GPU)"]
    for name, points in curves.items():
        parts.append(format_curve_table(name, points))
    target = PAPER_LATENCY_TARGETS.get((config.name, dataset.name))
    if target is not None:
        ratios = headline_ratios(curves, target)
        paper = PAPER_RATIOS.get((config.name, dataset.name), {})
        parts.append(f"Throughput ratios at {target * 1e3:.0f} ms/token:")
        for system, ratio in ratios.items():
            expect = paper.get(system)
            suffix = f" (paper: {expect}x)" if expect else ""
            parts.append(f"  Pensieve / {system}: {ratio:.2f}x{suffix}")
    return "\n".join(parts)
