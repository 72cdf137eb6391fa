"""The declared metric-name registry: the single source of truth.

Every histogram name recorded through a :class:`~repro.serving.metrics.
MetricsCollector`-armed sink, every ``FlightRecorder`` lifecycle event, and
every tier label must be declared here.  The Prometheus exporter and the
reconciliation suites (``tests/obs/test_slo_reconciliation.py``,
``tests/obs/test_disk_reconciliation.py``) import these sets instead of
re-declaring string literals.  The SLO suite checks both directions
against real runs: a recorded name missing here (a typo), or a declared
name nothing records, fails it.

This module is deliberately a leaf (no imports), so anything can import
it without pulling in the package.
"""

from __future__ import annotations

__all__ = [
    "FLIGHT_EVENTS",
    "HISTOGRAM_NAMES",
    "HISTOGRAM_TIERS",
    "SAMPLED_HISTOGRAMS",
    "WALL_HISTOGRAM_NAMES",
    "all_histogram_names",
]

#: Sim-clock latency/size histograms recorded by the engines and the
#: metrics collector (exported to Prometheus as ``repro_<name>``).
HISTOGRAM_NAMES = frozenset(
    {
        "latency_seconds",
        "norm_latency_seconds",
        "queue_wait_seconds",
        "ttft_seconds",
        "tbt_seconds",
        "swap_in_seconds",
        "swap_out_seconds",
        "recompute_tokens",
        "recompute_est_seconds",
    }
)

#: Wall-clock histograms (the functional chat server measures real
#: elapsed seconds; never merged with a sim-clock series).
WALL_HISTOGRAM_NAMES = frozenset(
    {
        "chat_turn_seconds",
        "chat_token_seconds",
    }
)

#: ``tier=`` label values carried by the swap histograms and the flight
#: swap events.
HISTOGRAM_TIERS = frozenset(
    {
        "cpu",
        "disk",
    }
)

#: Flight-recorder lifecycle event names (the bounded per-request ring;
#: ledger keys are ``event`` or ``event.tier``).  Preemption is not a
#: separate event: it records as ``suspend`` with ``kind="preempt"``.
FLIGHT_EVENTS = frozenset(
    {
        "admit",
        "batch_join",
        "suspend",
        "swap_out",
        "swap_in",
        "recompute",
        "retry",
        "fault",
        "abort",
        "finish",
    }
)

#: Histograms whose streaming tail percentiles the JSONL
#: :class:`~repro.obs.export.MetricsSampler` samples each interval.
SAMPLED_HISTOGRAMS = frozenset(
    {
        "ttft_seconds",
        "tbt_seconds",
        "queue_wait_seconds",
    }
)


def all_histogram_names() -> frozenset:
    """Every declared histogram name, both clocks."""
    return HISTOGRAM_NAMES | WALL_HISTOGRAM_NAMES
