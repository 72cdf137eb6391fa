"""Figure 15 — impact of average user think time.

The paper (§6.7): longer think times cause cached KV-tokens to age out
before the user returns, so Pensieve's throughput falls and its advantage
over vLLM narrows — but never disappears.

At benchmark scale the simulated window is 400 s, so the think-time sweep
uses 30/120/400 s (the paper sweeps 60-600 s over hour-long runs); the
CPU tier is shrunk so cache pressure appears in-window.
"""

from repro.experiments.common import throughput_at_latency
from repro.experiments.fig15 import format_fig15, run_fig15

from benchmarks.conftest import run_once

CPU_TOKENS = 60_000  # ~12 GB of Llama-2-13B KV-tokens
THINKS = (30.0, 120.0, 400.0)
TARGET = 0.120


def test_fig15_think_time(benchmark):
    curves = run_once(
        benchmark,
        run_fig15,
        rates=(8.0, 14.0, 20.0),
        think_times=THINKS,
        duration=400.0,
        cpu_cache_tokens=CPU_TOKENS,
    )
    print("\n" + format_fig15(curves))

    pensieve = {
        think: throughput_at_latency(curves[f"Pensieve think={think:g}s"], TARGET)
        for think in THINKS
    }
    vllm_lo = throughput_at_latency(curves[f"vLLM think={THINKS[0]:g}s"], TARGET)
    vllm_hi = throughput_at_latency(curves[f"vLLM think={THINKS[-1]:g}s"], TARGET)
    print(f"\nPensieve thr@{TARGET * 1e3:.0f}ms by think time: {pensieve}")
    print(f"vLLM thr@{TARGET * 1e3:.0f}ms: think {THINKS[0]:g}s -> {vllm_lo:.2f}, "
          f"think {THINKS[-1]:g}s -> {vllm_hi:.2f}")

    # Claim 1: Pensieve's throughput decreases as think time increases.
    thr = [pensieve[t] for t in THINKS]
    assert thr == sorted(thr, reverse=True)

    # Claim 2: even at the longest think time, Pensieve is not worse than
    # vLLM at the same think time...
    assert pensieve[THINKS[-1]] >= 0.97 * vllm_hi
    # ...and its per-rate latency stays at-or-below vLLM's.
    p_pts = {p.request_rate: p for p in curves[f"Pensieve think={THINKS[-1]:g}s"]}
    v_pts = {p.request_rate: p for p in curves[f"vLLM think={THINKS[-1]:g}s"]}
    assert all(
        p_pts[r].mean_norm_latency <= v_pts[r].mean_norm_latency for r in p_pts
    )

    # Claim 3: the Pensieve/vLLM gap narrows as think time grows.
    gap_short = pensieve[THINKS[0]] / vllm_lo
    gap_long = pensieve[THINKS[-1]] / vllm_hi
    print(f"gap at think {THINKS[0]:g}s: {gap_short:.2f}x, "
          f"at {THINKS[-1]:g}s: {gap_long:.2f}x")
    assert gap_short > gap_long
