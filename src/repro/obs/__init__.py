"""End-to-end tracing & telemetry (``repro.obs``).

The observability layer gives every run an attributed timeline: which
tokens were saved, what crossed the PCIe link, when eviction fired and at
what retention score, how deep the queues ran, and how each request's
lifecycle decomposed into prefill/decode/swap/recompute work.

Three pieces:

- :class:`Tracer` / :class:`NullTracer` — hierarchical spans stamped with
  simulated *and* wall-clock time, plus typed counters and gauges.  The
  null tracer is the default everywhere; its methods are allocation-free
  no-ops and hot loops additionally guard on :attr:`NullTracer.enabled`,
  so a disabled run executes the exact pre-instrumentation code path.
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
  {fig13,fig15x}``, and the ``--slo-ttft`` / ``--slo-tbt`` /
  ``--metrics-out`` flags on ``simulate`` / ``sweep`` / ``chat`` (see
  :mod:`repro.cli`).
"""

from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.histogram import (
    NULL_HISTOGRAM,
    NULL_HISTOGRAMS,
    Histogram,
    HistogramSet,
    NullHistogram,
    NullHistogramSet,
)
from repro.obs.flight import (
    NULL_FLIGHT,
    FlightEvent,
    FlightRecorder,
    NullFlightRecorder,
    SloConfig,
)
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
    "NULL_FLIGHT",
    "NULL_HISTOGRAM",
    "NULL_HISTOGRAMS",
    "NULL_TRACER",
    "FlightEvent",
    "FlightRecorder",
    "Histogram",
    "HistogramSet",
    "MetricsSampler",
    "NullFlightRecorder",
    "NullHistogram",
    "NullHistogramSet",
    "NullTracer",
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
