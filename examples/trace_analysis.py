"""Deep-dive analysis of one serving run.

Serves a ShareGPT-like workload with Pensieve and with vLLM, then uses
:mod:`repro.analysis` to compare what actually happened inside: cache hit
rates, batch occupancy, PCIe utilisation, and how per-turn latency evolves
as conversations accumulate history — the mechanism behind every headline
number.

Run:  python examples/trace_analysis.py
"""

from repro.analysis import (
    batch_occupancy,
    cache_summary,
    pcie_utilization,
    turn_latency_breakdown,
)
from repro.core import PensieveEngine
from repro.experiments.common import run_serving_once
from repro.gpu import A100_80GB
from repro.model import OPT_13B
from repro.obs import Tracer
from repro.serving import make_vllm
from repro.workload import SHAREGPT
from repro.workload.dataset import generate_workload

DURATION = 250.0
RATE = 8.0


def main() -> None:
    conversations = generate_workload(
        SHAREGPT, request_rate=RATE, duration=DURATION, seed=7
    )
    print(f"Workload: {sum(c.num_turns for c in conversations)} requests over "
          f"{DURATION:.0f}s at {RATE} req/s\n")

    # A recording tracer per run: batch occupancy reads its iteration spans.
    pensieve, p_stats = run_serving_once(
        lambda loop: PensieveEngine(loop, OPT_13B, A100_80GB),
        conversations, until=DURATION, warmup=DURATION * 0.3, tracer=Tracer(),
    )
    vllm, v_stats = run_serving_once(
        lambda loop: make_vllm(loop, OPT_13B, A100_80GB),
        conversations, until=DURATION, warmup=DURATION * 0.3, tracer=Tracer(),
    )

    print("== Cache behaviour (Pensieve) ==")
    for key, value in cache_summary(pensieve).as_dict().items():
        print(f"  {key:>20}: {value}")

    print("\n== Batch occupancy ==")
    for name, engine in (("Pensieve", pensieve), ("vLLM", vllm)):
        print(f"  {name:>9}: {batch_occupancy(engine).as_dict()}")

    print("\n== PCIe utilisation (Pensieve) ==")
    for key, value in pcie_utilization(pensieve.pcie, DURATION).items():
        print(f"  {key:>20}: {value:.3f}" if isinstance(value, float)
              else f"  {key:>20}: {value}")

    print("\n== Per-turn latency (mean normalized, ms) ==")
    p_turns = turn_latency_breakdown(pensieve.metrics.records)
    v_turns = turn_latency_breakdown(vllm.metrics.records)
    print(f"  {'turn':>4} {'requests':>8} {'history':>8} "
          f"{'Pensieve':>9} {'vLLM':>9} {'vLLM prefilled':>14}")
    for turn in sorted(set(p_turns) & set(v_turns)):
        if p_turns[turn]["count"] < 5:
            continue
        print(
            f"  {turn:>4} {p_turns[turn]['count']:>8} "
            f"{p_turns[turn]['mean_history']:>8.0f} "
            f"{p_turns[turn]['mean_norm_latency'] * 1e3:>9.1f} "
            f"{v_turns[turn]['mean_norm_latency'] * 1e3:>9.1f} "
            f"{v_turns[turn]['mean_prefilled']:>14.0f}"
        )
    print("\n(The vLLM column degrades with turn index as the re-prefilled "
          "history grows; Pensieve's stays flat.)")


if __name__ == "__main__":
    main()
