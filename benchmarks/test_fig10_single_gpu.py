"""Figure 10 — single-GPU end-to-end serving performance.

Reduced-scale sweeps (shorter simulated duration, fewer rates than a
full-scale ``python -m repro report`` run) asserting the paper's qualitative claims:

- Pensieve achieves the best throughput at the paper's latency targets;
- TensorRT-LLM beats vLLM (compiled kernels) but not Pensieve;
- Pensieve (GPU cache) sits between the baselines and full Pensieve;
- the GQA model (Llama 2-13B) benefits more than OPT-13B;
- ShareGPT (more turns) benefits more than UltraChat.
"""

import pytest

from repro.experiments.common import throughput_at_latency
from repro.experiments.fig10 import (
    PAPER_LATENCY_TARGETS,
    format_fig10,
    headline_ratios,
    run_fig10,
)
from repro.model import LLAMA2_13B, OPT_13B
from repro.workload import SHAREGPT, ULTRACHAT

from benchmarks.conftest import run_once

DURATION = 400.0


def test_fig10a_opt13b_sharegpt(benchmark):
    curves = run_once(
        benchmark, run_fig10, OPT_13B, SHAREGPT,
        rates=(2.0, 5.0, 8.0, 11.0), duration=DURATION,
    )
    print("\n" + format_fig10(curves, OPT_13B, SHAREGPT))
    target = PAPER_LATENCY_TARGETS[("OPT-13B", "ShareGPT")]
    ratios = headline_ratios(curves, target)
    # Paper: 1.36x vLLM, 1.14x TensorRT-LLM at 120 ms/token.
    assert ratios["vLLM"] > 1.15
    assert ratios["TensorRT-LLM"] > 1.05
    assert ratios["Pensieve (GPU cache)"] > 1.0
    # TensorRT-LLM consistently outperforms vLLM (§6.2).
    assert throughput_at_latency(
        curves["TensorRT-LLM"], target
    ) > throughput_at_latency(curves["vLLM"], target)


def test_fig10b_llama13b_sharegpt(benchmark):
    curves = run_once(
        benchmark, run_fig10, LLAMA2_13B, SHAREGPT,
        rates=(6.0, 12.0, 18.0, 24.0), duration=DURATION,
    )
    print("\n" + format_fig10(curves, LLAMA2_13B, SHAREGPT))
    target = PAPER_LATENCY_TARGETS[("Llama 2-13B", "ShareGPT")]
    ratios = headline_ratios(curves, target)
    # Paper: 1.70x vLLM, 1.58x TensorRT-LLM at 180 ms/token; GQA gives
    # Pensieve more cacheable tokens, so gains exceed the OPT-13B panel.
    assert ratios["vLLM"] > 1.3
    assert ratios["TensorRT-LLM"] > 1.15


def test_fig10c_opt13b_ultrachat(benchmark):
    curves = run_once(
        benchmark, run_fig10, OPT_13B, ULTRACHAT,
        rates=(2.0, 4.0, 6.0, 8.0), duration=DURATION,
    )
    print("\n" + format_fig10(curves, OPT_13B, ULTRACHAT))
    target = PAPER_LATENCY_TARGETS[("OPT-13B", "UltraChat")]
    ratios = headline_ratios(curves, target)
    # Paper: 1.17x vLLM at 120 ms/token — smaller than ShareGPT because
    # UltraChat has fewer turns.
    assert ratios["vLLM"] > 1.02


def test_fig10_sharegpt_beats_ultrachat_in_gains(benchmark):
    # A short think time lets conversations get through all their turns
    # inside the benchmark window, so the datasets' turn-count difference
    # (5.56 vs 3.86) — the mechanism behind the paper's §6.2 contrast —
    # is fully expressed at reduced scale.
    def both():
        share = run_fig10(
            OPT_13B, SHAREGPT, rates=(5.0, 8.0, 11.0), duration=DURATION,
            systems=("vLLM", "Pensieve"), think_time_mean=20.0,
        )
        ultra = run_fig10(
            OPT_13B, ULTRACHAT, rates=(3.0, 5.0, 7.0), duration=DURATION,
            systems=("vLLM", "Pensieve"), think_time_mean=20.0,
        )
        return share, ultra

    share, ultra = run_once(benchmark, both)
    target = 0.120
    share_ratio = headline_ratios(share, target)["vLLM"]
    ultra_ratio = headline_ratios(ultra, target)["vLLM"]
    print(f"\nGain on ShareGPT {share_ratio:.2f}x vs UltraChat {ultra_ratio:.2f}x")
    # §6.2: more conversation turns -> more benefit from saved KV-tokens.
    assert share_ratio > ultra_ratio
