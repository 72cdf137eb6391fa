"""Command-line interface.

Run as ``python -m repro <command>``:

- ``chat``      — interactive stateful chat against the functional server;
- ``simulate``  — one serving-simulation run, printing latency/throughput
  and cache statistics;
- ``sweep``     — a latency–throughput curve for one system;
- ``figures``   — the fast analytical figures (3, 4, 12) and Table 2;
- ``report``    — regenerate EXPERIMENTS.md (slow: full serving sweeps);
- ``trace``     — run the Figure 13 sweep with full telemetry and export
  the trace (Chrome trace JSON, JSONL event log, text report).

``simulate --trace-out DIR`` records the same telemetry for one serving
run alongside its normal output.  ``simulate`` / ``sweep`` / ``chat``
accept ``--slo-ttft`` / ``--slo-tbt`` / ``--metrics-out`` to arm the SLO
layer; ``--metrics-out DIR`` writes a Prometheus text snapshot (for
``simulate`` self-reconciling against the engine/PCIe ledgers), the
flight-recorder captures of every SLO-violating or failed request, and
for ``simulate`` a periodic JSONL metrics stream.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.model.config import PAPER_MODELS, ModelConfig


def _model(name: str) -> ModelConfig:
    lookup = {cfg.name.lower().replace(" ", ""): cfg for cfg in PAPER_MODELS.values()}
    key = name.lower().replace(" ", "").replace("_", "-")
    if key not in lookup:
        raise SystemExit(
            f"unknown model {name!r}; choose from {sorted(lookup)}"
        )
    return lookup[key]


def _fault_plan(args: argparse.Namespace):
    """Build a FaultPlan from ``--fault-seed`` / ``--fault-rate`` (or None)."""
    if getattr(args, "fault_seed", None) is None:
        return None
    from repro.faults import FaultPlan, FaultSite

    rate = args.fault_rate
    if not 0.0 <= rate <= 1.0:
        raise SystemExit(f"--fault-rate must be in [0, 1], got {rate}")
    # Every site is armed, scaled by its rate_scale.
    return FaultPlan(
        seed=args.fault_seed,
        rates={site: rate * site.rate_scale for site in FaultSite},
    )


def _engine_factory(system: str, config: ModelConfig, fault_plan=None):
    from repro.core.engine import PensieveEngine
    from repro.gpu.device import A100_80GB
    from repro.serving.stateless import make_tensorrt_llm, make_vllm

    system = system.lower()
    stateful = ("pensieve", "pensieve-gpu", "pensieve-gpu-cache")
    if fault_plan is not None and system not in stateful:
        raise SystemExit(
            "--fault-seed requires a stateful system (pensieve, pensieve-gpu)"
        )
    if system == "vllm":
        return lambda loop: make_vllm(loop, config, A100_80GB)
    if system in ("trt", "tensorrt", "tensorrt-llm"):
        return lambda loop: make_tensorrt_llm(loop, config, A100_80GB)
    if system == "pensieve":
        return lambda loop: PensieveEngine(
            loop, config, A100_80GB, fault_plan=fault_plan,
        )
    if system in ("pensieve-gpu", "pensieve-gpu-cache"):
        return lambda loop: PensieveEngine(
            loop, config, A100_80GB, cpu_cache_tokens=0, fault_plan=fault_plan,
        )
    raise SystemExit(
        f"unknown system {system!r}; choose from vllm, tensorrt-llm, "
        "pensieve, pensieve-gpu"
    )


def _make_tracer(args: argparse.Namespace):
    """A recording tracer when ``--trace-out`` was given, else None."""
    if not getattr(args, "trace_out", None):
        return None
    from repro.obs import Tracer

    return Tracer()


def _write_trace(tracer, outdir: str, prefix: str = "trace") -> None:
    from repro.obs import write_trace_artifacts

    paths = write_trace_artifacts(tracer, outdir, prefix=prefix)
    for kind in sorted(paths):
        print(f"trace [{kind:6s}]: {paths[kind]}")


def _slo_config(args: argparse.Namespace, command: str):
    """A SloConfig when any SLO/metrics flag was given, else None.

    ``--metrics-out`` alone arms the metrics layer with no objectives
    (histograms and the flight recorder record; nothing can violate).
    A non-positive or NaN objective exits with ``repro <command>: ...``.
    """
    ttft = getattr(args, "slo_ttft", None)
    tbt = getattr(args, "slo_tbt", None)
    if ttft is None and tbt is None and not getattr(args, "metrics_out", None):
        return None
    from repro.obs import SloConfig

    try:
        return SloConfig(ttft=ttft, tbt=tbt)
    except ValueError as error:
        raise SystemExit(f"repro {command}: {error}") from None


def _make_sampler(args: argparse.Namespace):
    """A MetricsSampler bounded by the run duration (``--metrics-out``
    runs only; ~100 rows regardless of duration)."""
    if not getattr(args, "metrics_out", None):
        return None
    from repro.obs import MetricsSampler

    duration = getattr(args, "duration", 0.0) or 0.0
    return MetricsSampler(
        interval=max(duration / 100.0, 1e-3), horizon=duration or None
    )


def _print_slo_summary(collector) -> None:
    """Attribution table + SLO/capture counts for an armed collector."""
    from repro.obs import tier_attribution_table

    table = tier_attribution_table(
        collector.hist, title="-- latency attribution (sim seconds) --"
    )
    if table:
        print(table)
    report = collector.slo_report()
    if report["slo"] is not None:
        print(f"slo           : {report['slo']}")
        print(
            f"slo violations: {report['violations_by_kind']} "
            f"({report['violated_requests']} requests)"
        )
    print(
        f"flight capture: {report['captures']} timelines "
        f"({report['dropped_captures']} dropped, "
        f"{report['failed_requests']} failed requests)"
    )


def _write_metrics(outdir: str, prefix: str, collector=None, hists=None,
                   counters=None, sampler=None) -> None:
    """Write the metrics artifacts of ``chat``, ``simulate`` and ``sweep``:
    ``<prefix>.prom`` (a Prometheus snapshot of ``collector`` / ``hists``
    plus ``counters``), ``<prefix>_captures.jsonl`` whenever the
    collector's flight recorder is armed, and ``<prefix>.jsonl`` when a
    sampler ran."""
    import os

    from repro.obs import prometheus_snapshot

    os.makedirs(outdir, exist_ok=True)
    prom_path = os.path.join(outdir, f"{prefix}.prom")
    with open(prom_path, "w", encoding="utf-8") as fh:
        fh.write(prometheus_snapshot(collector, hists, counters))
    print(f"metrics [prom   ]: {prom_path}")
    if sampler is not None:
        jsonl_path = os.path.join(outdir, f"{prefix}.jsonl")
        sampler.write_jsonl(jsonl_path)
        print(f"metrics [jsonl  ]: {jsonl_path}")
    flight = None if collector is None else collector.flight
    if flight is not None:
        cap_path = os.path.join(outdir, f"{prefix}_captures.jsonl")
        flight.dump_captures(cap_path)
        print(f"metrics [flight ]: {cap_path}")


def cmd_chat(args: argparse.Namespace) -> int:
    import time as _time

    from repro.core.server import StatefulChatServer
    from repro.model.config import tiny_llama_config, tiny_opt_config

    if args.max_tokens < 1:
        # ``chat_batch`` would refuse it only at the first turn.
        raise SystemExit(
            f"repro chat: --max-tokens must be at least 1, got {args.max_tokens}"
        )
    # Chat is a real (functional) server, so SLO metrics run on the WALL
    # clock: --slo-ttft bounds the whole turn, --slo-tbt the per-token
    # mean over the turn's max_new_tokens.
    slo = _slo_config(args, "chat")
    config = tiny_llama_config() if args.arch == "llama" else tiny_opt_config()
    try:
        server = StatefulChatServer(
            config,
            gpu_capacity_tokens=args.gpu_tokens,
            cpu_capacity_tokens=args.cpu_tokens,
            seed=args.seed,
        )
    except ValueError as error:  # tier sizes the flags gave
        raise SystemExit(f"repro chat: {error}") from None
    if args.system_prompt:
        server.set_system_prompt(args.system_prompt)

    hist = None
    violations = {"ttft": 0, "tbt": 0}
    if slo is not None:
        from repro.obs import HistogramSet

        hist = HistogramSet()

    def _finish() -> int:
        if hist is None:
            return 0
        from repro.obs import tier_attribution_table

        table = tier_attribution_table(
            hist, title="-- chat turn latency (wall seconds) --"
        )
        if table:
            print(table)
        if slo.armed:
            print(f"slo violations: {violations}")
        if args.metrics_out:
            counters = {
                f"slo_violations.{kind}": float(count)
                for kind, count in violations.items()
                if count
            }
            _write_metrics(args.metrics_out, "chat_metrics", hists=hist,
                           counters=counters)
        return 0

    print(
        "Stateful chat demo (random-weight tiny model; replies are noise,\n"
        "the cache behaviour is real).  Commands: /stats, /quit.\n"
    )
    conv_id = 0
    while True:
        try:
            line = input("you> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return _finish()
        if not line:
            continue
        if line == "/quit":
            return _finish()
        if line == "/stats":
            print(f"  context: {server.context_length(conv_id)} tokens")
            print(f"  placement: {server.placement(conv_id)}")
            print(f"  cache stats: {server.manager.stats}")
            continue
        start = _time.perf_counter()
        reply = server.chat_text(conv_id, line, max_new_tokens=args.max_tokens)
        elapsed = _time.perf_counter() - start
        if hist is not None:
            hist.hist("chat_turn_seconds", clock="wall").record(elapsed)
            per_token = elapsed / max(1, args.max_tokens)
            hist.hist("chat_token_seconds", clock="wall").record(per_token)
            for kind in slo.violations(elapsed, per_token):
                violations[kind] += 1
        print(f"bot> {reply}")


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis.traces import cache_summary
    from repro.experiments.common import run_serving_once
    from repro.workload.dataset import SHAREGPT, ULTRACHAT, generate_workload

    config = _model(args.model)
    dataset = ULTRACHAT if args.dataset == "ultrachat" else SHAREGPT
    try:
        conversations = generate_workload(
            dataset,
            request_rate=args.rate,
            duration=args.duration,
            think_time_mean=args.think_time,
            seed=args.seed,
        )
    except ValueError as error:  # the rate, duration or think time given
        raise SystemExit(f"repro simulate: {error}") from None
    fault_plan = _fault_plan(args)
    tracer = _make_tracer(args)
    slo = _slo_config(args, "simulate")
    sampler = _make_sampler(args)
    try:
        engine, stats = run_serving_once(
            _engine_factory(args.system, config, fault_plan),
            conversations,
            until=args.duration,
            warmup=args.duration * 0.3,
            tracer=tracer,
            slo=slo,
            sampler=sampler,
        )
    except ValueError as error:  # e.g. a duration too short to measure
        raise SystemExit(f"repro simulate: {error}") from None
    print(f"system        : {engine.name}")
    print(f"model         : {config.name} ({config.num_gpus} GPU(s))")
    print(f"workload      : {dataset.name} @ {args.rate} req/s, "
          f"{args.duration:.0f}s, think {args.think_time:.0f}s")
    for key, value in stats.as_dict().items():
        print(f"{key:22s}: {value}")
    if hasattr(engine, "manager"):
        print("cache         :", cache_summary(engine).as_dict())
    if fault_plan is not None:
        print("faults        :", engine.metrics.faults.as_dict())
        print(f"degraded      : {engine.num_failed}")
    if slo is not None:
        _print_slo_summary(engine.metrics)
    if args.metrics_out:
        from repro.obs import ledger_counters

        _write_metrics(args.metrics_out, "metrics", engine.metrics,
                       counters=ledger_counters(engine), sampler=sampler)
    if tracer is not None:
        _write_trace(tracer, args.trace_out, prefix="trace_simulate")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.common import format_curve_table, run_rate_sweep
    from repro.workload.dataset import SHAREGPT, ULTRACHAT

    config = _model(args.model)
    dataset = ULTRACHAT if args.dataset == "ultrachat" else SHAREGPT
    slo = _slo_config(args, "sweep")
    total = hist = flight = extras_fn = None
    if slo is not None:
        # One collector totals the sweep: every rate's engine records into
        # its histograms and flight recorder, then hands over its
        # completions, failures and violations when its run ends.
        from repro.serving.metrics import MetricsCollector

        total = MetricsCollector().enable_slo(slo=slo)
        hist, flight = total.hist, total.flight

        def extras_fn(engine):
            total.absorb(engine.metrics)
            return {}

    try:
        points = run_rate_sweep(
            _engine_factory(args.system, config),
            dataset,
            rates=args.rates,
            duration=args.duration,
            think_time_mean=args.think_time,
            seed=args.seed,
            extras_fn=extras_fn,
            slo=slo,
            hist=hist,
            flight=flight,
        )
    except ValueError as error:  # a rate, the duration or the think time
        raise SystemExit(f"repro sweep: {error}") from None
    print(format_curve_table(f"{args.system} / {config.name}", points))
    if total is not None:
        _print_slo_summary(total)
    if args.metrics_out:
        _write_metrics(args.metrics_out, "sweep_metrics", total)
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.fig03 import format_fig03, run_fig03
    from repro.experiments.fig04 import format_fig04, run_fig04
    from repro.experiments.fig12 import format_fig12, run_fig12
    from repro.experiments.tab02 import format_tab02, run_tab02

    print(format_fig03(run_fig03()))
    print()
    print(format_fig04(run_fig04()))
    print()
    print(format_fig12(run_fig12()))
    print()
    print(format_tab02(run_tab02()))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import Tracer

    from repro.experiments.fig13 import format_fig13, run_fig13

    tracer = Tracer()
    try:
        curves = run_fig13(
            rates=tuple(args.rates), duration=args.duration,
            seed=args.seed, tracer=tracer,
        )
    except ValueError as error:  # a rate or duration the flags gave
        raise SystemExit(f"repro trace: {error}") from None
    print(format_fig13(curves))
    _write_trace(tracer, args.out, prefix=f"trace_{args.experiment}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate

    generate(args.output, duration=args.duration)
    return 0


def _add_slo_flags(parser: argparse.ArgumentParser) -> None:
    """The SLO-objective / metrics-artifact flag trio.

    Any one of them arms the SLO observability layer (streaming latency
    histograms + per-request flight recorder); the objectives addition-
    ally classify violations and capture slow-request timelines.
    """
    parser.add_argument("--slo-ttft", type=float, default=None,
                        metavar="SECONDS",
                        help="time-to-first-token objective; requests over "
                             "it count as violations and dump their flight "
                             "timeline")
    parser.add_argument("--slo-tbt", type=float, default=None,
                        metavar="SECONDS",
                        help="mean time-between-tokens objective (same "
                             "violation handling)")
    parser.add_argument("--metrics-out", default=None, metavar="DIR",
                        help="write the metrics artifacts (Prometheus text "
                             "snapshot, JSONL samples, flight captures) "
                             "here; also arms the SLO layer by itself")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pensieve reproduction: stateful LLM serving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chat = sub.add_parser("chat", help="interactive functional chat demo")
    chat.add_argument("--arch", choices=("opt", "llama"), default="llama")
    chat.add_argument("--gpu-tokens", type=int, default=512)
    chat.add_argument("--cpu-tokens", type=int, default=2048)
    chat.add_argument("--max-tokens", type=int, default=12)
    chat.add_argument("--system-prompt", default="")
    chat.add_argument("--seed", type=int, default=0)
    _add_slo_flags(chat)
    chat.set_defaults(func=cmd_chat)

    simulate = sub.add_parser("simulate", help="one serving-simulation run")
    simulate.add_argument("--system", default="pensieve")
    simulate.add_argument("--model", default="opt-13b")
    simulate.add_argument("--dataset", choices=("sharegpt", "ultrachat"),
                          default="sharegpt")
    simulate.add_argument("--rate", type=float, default=8.0)
    simulate.add_argument("--duration", type=float, default=300.0)
    simulate.add_argument("--think-time", type=float, default=60.0)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--fault-seed", type=int, default=None,
                          help="arm deterministic fault injection (stateful "
                               "systems only) seeded with this value")
    simulate.add_argument("--fault-rate", type=float, default=0.05,
                          help="per-occurrence failure probability used for "
                               "the injected fault sites")
    simulate.add_argument("--trace-out", default=None, metavar="DIR",
                          help="record full telemetry and write the trace "
                               "artifacts (Chrome JSON, JSONL, text) here")
    _add_slo_flags(simulate)
    simulate.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="latency-throughput curve")
    sweep.add_argument("--system", default="pensieve")
    sweep.add_argument("--model", default="opt-13b")
    sweep.add_argument("--dataset", choices=("sharegpt", "ultrachat"),
                       default="sharegpt")
    sweep.add_argument("--rates", type=float, nargs="+",
                       default=[2.0, 5.0, 8.0, 11.0])
    sweep.add_argument("--duration", type=float, default=300.0)
    sweep.add_argument("--think-time", type=float, default=60.0)
    sweep.add_argument("--seed", type=int, default=7)
    _add_slo_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    figures = sub.add_parser("figures", help="fast analytical figures")
    figures.set_defaults(func=cmd_figures)

    trace = sub.add_parser(
        "trace", help="run a figure sweep with full telemetry recording "
                      "(one serving run: simulate --trace-out)"
    )
    trace.add_argument("experiment", choices=("fig13",),
                       help="what to run under the tracer")
    trace.add_argument("--out", default="traces", metavar="DIR",
                       help="output directory for the trace artifacts")
    trace.add_argument("--rates", type=float, nargs="+", default=[2.0, 8.0],
                       help="request rates")
    trace.add_argument("--duration", type=float, default=120.0)
    trace.add_argument("--seed", type=int, default=7)
    trace.set_defaults(func=cmd_trace)

    report = sub.add_parser("report", help="regenerate EXPERIMENTS.md (slow)")
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.add_argument("--duration", type=float, default=500.0)
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
