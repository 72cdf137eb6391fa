"""End-to-end tracing & telemetry (``repro.obs``).

The observability layer gives every run an attributed timeline: which
tokens were saved, what crossed the PCIe link, when eviction fired and at
what retention score, how deep the queues ran, and how each request's
lifecycle decomposed into prefill/decode/swap/recompute work.

Three pieces:

- :class:`Tracer` — hierarchical spans stamped with simulated *and*
  wall-clock time, plus typed counters and gauges.  Off is ``None``:
  every component's ``tracer`` (and a collector's ``hist`` and
  ``flight``) defaults to ``None`` and every instrumentation site tests
  ``is not None`` first, so an unarmed run executes the exact
  pre-instrumentation code path.
- Exporters (:mod:`repro.obs.export`) — JSONL event log, Chrome
  trace-event JSON (loadable in Perfetto / ``chrome://tracing``), and a
  human-readable text report: the one span rollup (per-stage count,
  total, mean and max, the slowest spans, per-conversation totals).
- SLO metrics (:mod:`repro.obs.histogram` / :mod:`repro.obs.flight`) —
  log-bucketed latency :class:`Histogram` sets (TTFT, TBT,
  queue wait, per-tier swap, recompute), a bounded per-request
  :class:`FlightRecorder` of lifecycle events with slow/failed-request
  capture, and exporters: Prometheus text snapshots
  (:func:`prometheus_snapshot`, self-reconciling against
  :func:`ledger_counters`) plus a sim-clock :class:`MetricsSampler`
  JSONL stream.
- CLI surface — ``repro simulate --trace-out DIR``, ``repro trace
  fig13``, and the ``--slo-ttft`` / ``--slo-tbt`` /
  ``--metrics-out`` flags on ``simulate`` / ``sweep`` / ``chat`` (see
  :mod:`repro.cli`).
"""

from repro.obs.tracer import Span, Tracer
from repro.obs.histogram import Histogram, HistogramSet
from repro.obs.flight import FlightEvent, FlightRecorder, SloConfig
from repro.obs.export import (
    MetricsSampler,
    ledger_counters,
    parse_prometheus,
    prometheus_snapshot,
    text_report,
    tier_attribution_table,
    to_chrome_trace,
    to_jsonl,
    write_trace_artifacts,
)

__all__ = [
    "FlightEvent",
    "FlightRecorder",
    "Histogram",
    "HistogramSet",
    "MetricsSampler",
    "SloConfig",
    "Span",
    "Tracer",
    "ledger_counters",
    "parse_prometheus",
    "prometheus_snapshot",
    "text_report",
    "tier_attribution_table",
    "to_chrome_trace",
    "to_jsonl",
    "write_trace_artifacts",
]
