"""Experiment harness: one module per paper figure/table.

Each module exposes a ``run_*`` function returning plain data (lists of
dict rows) plus a ``format_*`` helper printing the same rows the paper's
figure/table reports.  The benchmark suite under ``benchmarks/`` calls
these and asserts the paper's qualitative claims (who wins, by roughly
what factor, where crossovers fall).

Index (see DESIGN.md §3 for the full mapping):

- :mod:`repro.experiments.fig03` — prefill vs generation cost;
- :mod:`repro.experiments.fig04` — attention cost vs context size;
- :mod:`repro.experiments.fig10` — single-GPU serving performance;
- :mod:`repro.experiments.fig11` — 4-GPU serving performance;
- :mod:`repro.experiments.fig12` — multi-token kernel microbenchmark;
- :mod:`repro.experiments.fig13` — unified-scheduling ablation;
- :mod:`repro.experiments.fig14` — eviction-policy comparison;
- :mod:`repro.experiments.fig15` — user think-time sensitivity;
- :mod:`repro.experiments.tab02` — dataset statistics.
"""

from repro.experiments.common import (
    EngineFactory,
    RatePoint,
    run_rate_sweep,
    run_serving_once,
    throughput_at_latency,
)

__all__ = [
    "EngineFactory",
    "RatePoint",
    "run_serving_once",
    "run_rate_sweep",
    "throughput_at_latency",
]
