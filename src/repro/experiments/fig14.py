"""Figure 14: effect of the eviction policy.

Pensieve's retention-value policy versus classic LRU on OPT-13B /
ShareGPT.  The paper's findings (§6.6): the policies track each other
until roughly 3 requests/second; beyond that, the retention-value policy
wins — its CPU cache hit rate is up to 4.4 percentage points higher and
it reduces recomputed KV-tokens by up to 14.6 %.

Besides the latency–throughput curves, this experiment extracts the cache
statistics (hit rates, recomputed tokens) that the paper quotes from its
execution-trace analysis.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.traces import cache_summary
from repro.core.engine import PensieveEngine
from repro.experiments.common import RatePoint, format_curve_table, run_rate_sweep
from repro.gpu.device import A100_80GB, GpuSpec
from repro.model.config import OPT_13B, ModelConfig
from repro.serving.engine import EngineBase
from repro.workload.dataset import SHAREGPT, DatasetSpec

DEFAULT_RATES = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)


def cache_extras(engine: EngineBase) -> Dict[str, float]:
    """Cache statistics for one finished run (per the §6.6 analysis).

    The rates are :func:`~repro.analysis.traces.cache_summary`'s, the
    ones ``repro simulate`` prints: a run that looked up no history
    token has a hit rate of 1.0 (nothing was missed) and a CPU hit rate
    of 0.0.
    """
    summary = cache_summary(engine)
    return {
        "hit_rate": summary.hit_rate,
        "cpu_hit_rate": summary.cpu_hit_rate,
        "recomputed_tokens": summary.recomputed_tokens,
        "dropped_tokens": summary.dropped_tokens,
    }


def run_fig14(
    config: ModelConfig = OPT_13B,
    dataset: DatasetSpec = SHAREGPT,
    rates: Sequence[float] = DEFAULT_RATES,
    duration: float = 500.0,
    seed: int = 7,
    spec: GpuSpec = A100_80GB,
    cpu_cache_tokens: int = None,
) -> Dict[str, List[RatePoint]]:
    """Sweep Pensieve under both eviction policies.

    ``cpu_cache_tokens`` can shrink the CPU tier to increase eviction
    pressure (useful for fast benchmark runs; ``None`` keeps the full
    220 GB/GPU tier of the paper's testbed).
    """
    factories = {
        "retention-value": lambda loop: PensieveEngine(
            loop, config, spec, policy="retention",
            cpu_cache_tokens=cpu_cache_tokens,
        ),
        "lru": lambda loop: PensieveEngine(
            loop, config, spec, policy="lru",
            cpu_cache_tokens=cpu_cache_tokens, name="Pensieve (LRU)",
        ),
    }
    return {
        name: run_rate_sweep(
            factory, dataset, rates, duration=duration, seed=seed,
            extras_fn=cache_extras,
        )
        for name, factory in factories.items()
    }


def format_fig14(curves: Dict[str, List[RatePoint]]) -> str:
    parts = ["Figure 14 — retention-value vs LRU eviction (OPT-13B, ShareGPT)"]
    for name, points in curves.items():
        parts.append(format_curve_table(name, points))
        parts.append(
            "  rate -> hit rate / recomputed tokens: "
            + ", ".join(
                f"{p.request_rate:g}: {p.extras['hit_rate']:.3f}/"
                f"{int(p.extras['recomputed_tokens'])}"
                for p in points
            )
        )
    return "\n".join(parts)
