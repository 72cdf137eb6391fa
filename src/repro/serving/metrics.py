"""Serving performance metrics.

Following the paper (§6.1): *serving throughput* (completed requests per
second) and *normalized latency* (end-to-end request latency divided by the
number of output tokens), reported as the mean (Figure 10 caption) and the
90th percentile (the "Performance Metric" paragraph).

Fault-injection runs additionally report degradation counters
(:class:`~repro.faults.FaultCounters`, re-exported here): swap-in/out
failures, recompute fallbacks, retries and individually-degraded requests,
so benchmarks can quantify the overhead of graceful degradation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.plan import FaultCounters
from repro.obs.flight import FlightEvent, FlightRecorder, NULL_FLIGHT, SloConfig
from repro.obs.histogram import HistogramSet, NULL_HISTOGRAMS
from repro.serving.request import Request

__all__ = [
    "FailureRecord",
    "FaultCounters",
    "MetricsCollector",
    "RequestRecord",
    "ServingStats",
    "SloConfig",
]


@dataclass(frozen=True)
class RequestRecord:
    """Immutable completion record of one request."""

    request_id: int
    conv_id: int
    turn_index: int
    arrival_time: float
    finish_time: float
    first_token_time: float
    prompt_tokens: int
    history_tokens: int
    output_tokens: int
    prefilled_tokens: int
    #: Flight-recorder lifecycle timeline (bounded ring contents at
    #: completion); empty unless the SLO layer is enabled.
    events: Tuple[FlightEvent, ...] = ()

    @property
    def latency(self) -> float:
        return self.finish_time - self.arrival_time

    @property
    def normalized_latency(self) -> float:
        """Latency per output token; a zero-output request (possible for
        degraded/truncated completions) is normalized by 1 token."""
        return self.latency / max(1, self.output_tokens)

    @property
    def ttft(self) -> float:
        """Time to first token."""
        return self.first_token_time - self.arrival_time

    @property
    def mean_tbt(self) -> float:
        """Mean time-between-tokens over the decode phase (0.0 for
        single-token outputs, which have no inter-token gap)."""
        if self.output_tokens <= 1:
            return 0.0
        return (self.finish_time - self.first_token_time) / (
            self.output_tokens - 1
        )


@dataclass(frozen=True)
class FailureRecord:
    """One individually-degraded request (retries exhausted)."""

    request_id: int
    conv_id: int
    time: float
    reason: str
    #: Flight-recorder timeline at failure time (SLO layer only).
    events: Tuple[FlightEvent, ...] = ()

    def as_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "conv_id": self.conv_id,
            "time": round(self.time, 6),
            "reason": self.reason,
        }


@dataclass(frozen=True)
class ServingStats:
    """Aggregate statistics over a measurement window."""

    num_requests: int
    duration: float
    throughput_rps: float
    token_throughput: float
    mean_normalized_latency: float
    p50_normalized_latency: float
    p90_normalized_latency: float
    p99_normalized_latency: float
    mean_ttft: float
    mean_latency: float
    total_prefilled_tokens: int
    total_output_tokens: int
    num_failed: int = 0

    def as_dict(self) -> dict:
        return {
            "num_requests": self.num_requests,
            "num_failed": self.num_failed,
            "duration_s": round(self.duration, 3),
            "throughput_rps": round(self.throughput_rps, 4),
            "token_throughput": round(self.token_throughput, 1),
            "mean_norm_latency_ms": round(self.mean_normalized_latency * 1e3, 2),
            "p50_norm_latency_ms": round(self.p50_normalized_latency * 1e3, 2),
            "p90_norm_latency_ms": round(self.p90_normalized_latency * 1e3, 2),
            "p99_norm_latency_ms": round(self.p99_normalized_latency * 1e3, 2),
            "mean_ttft_ms": round(self.mean_ttft * 1e3, 2),
            "mean_latency_ms": round(self.mean_latency * 1e3, 2),
            "prefilled_tokens": self.total_prefilled_tokens,
            "output_tokens": self.total_output_tokens,
        }


class MetricsCollector:
    """Accumulates per-request completion records and aggregates them."""

    def __init__(self) -> None:
        self._records: List[RequestRecord] = []
        self._failures: List[FailureRecord] = []
        #: Degradation counters maintained by the engine's fault-recovery
        #: paths; all-zero when no fault plan is armed.
        self.faults = FaultCounters()
        #: SLO observability sinks — null (allocation-free) by default;
        #: :meth:`enable_slo` arms recording instances.
        self.hist = NULL_HISTOGRAMS
        self.flight = NULL_FLIGHT
        self.slo: Optional[SloConfig] = None
        #: Violation counts per objective kind (``ttft`` / ``tbt``).
        self.slo_violations: Dict[str, int] = {}
        #: Request ids that violated at least one objective.
        self.slo_violated_requests: List[int] = []

    def enable_slo(
        self,
        slo: Optional[SloConfig] = None,
        hist: Optional[HistogramSet] = None,
        flight: Optional[FlightRecorder] = None,
    ) -> "MetricsCollector":
        """Arm the SLO layer: streaming histograms, the per-request flight
        recorder, and (optionally) TTFT/TBT objectives with slow-request
        capture.  Idempotent; existing armed sinks are kept unless
        replacements are passed explicitly."""
        if hist is not None:
            self.hist = hist
        elif not self.hist.enabled:
            self.hist = HistogramSet()
        if flight is not None:
            self.flight = flight
        elif not self.flight.enabled:
            self.flight = FlightRecorder()
        if slo is not None:
            self.slo = slo
        return self

    def complete(self, request: Request) -> RequestRecord:
        """Record a finished request.

        Raises:
            RuntimeError: if the request lacks finish/first-token stamps.
        """
        if request.finish_time is None or request.first_token_time is None:
            raise RuntimeError(f"request {request.request_id} is incomplete")
        events: Tuple[FlightEvent, ...] = ()
        if self.flight.enabled:
            events = tuple(self.flight.finish(request.request_id))
        record = RequestRecord(
            request_id=request.request_id,
            conv_id=request.conv_id,
            turn_index=request.turn_index,
            arrival_time=request.arrival_time,
            finish_time=request.finish_time,
            first_token_time=request.first_token_time,
            prompt_tokens=request.prompt_tokens,
            history_tokens=request.history_tokens,
            output_tokens=request.output_tokens,
            prefilled_tokens=request.prefill_tokens,
            events=events,
        )
        self._records.append(record)
        if self.hist.enabled:
            self.hist.hist("latency_seconds").record(record.latency)
            self.hist.hist("norm_latency_seconds").record(
                record.normalized_latency
            )
        if self.slo is not None and self.slo.armed:
            violated = self.slo.violations(record.ttft, record.mean_tbt)
            if violated:
                for kind in violated:
                    self.slo_violations[kind] = (
                        self.slo_violations.get(kind, 0) + 1
                    )
                self.slo_violated_requests.append(record.request_id)
                if self.flight.enabled:
                    self.flight.capture(
                        record.request_id,
                        "slo:" + "+".join(violated),
                        record.finish_time,
                        events=list(events),
                        conv_id=record.conv_id,
                        ttft=round(record.ttft, 9),
                        mean_tbt=round(record.mean_tbt, 9),
                        output_tokens=record.output_tokens,
                    )
        return record

    def fail(self, request: Request, now: float, reason: str) -> FailureRecord:
        """Record an individually-degraded request (it never completes, so
        it would otherwise be invisible to the collector).  With the SLO
        layer armed, every failure captures its flight timeline."""
        events: Tuple[FlightEvent, ...] = ()
        if self.flight.enabled:
            events = tuple(self.flight.finish(request.request_id))
            self.flight.capture(
                request.request_id,
                f"failed:{reason}",
                now,
                events=list(events),
                conv_id=request.conv_id,
            )
        record = FailureRecord(
            request_id=request.request_id,
            conv_id=request.conv_id,
            time=now,
            reason=reason,
            events=events,
        )
        self._failures.append(record)
        return record

    def slo_report(self) -> dict:
        """Summary of the SLO layer's state (for CLI output and tests)."""
        return {
            "slo": self.slo.as_dict() if self.slo is not None else None,
            "violations_by_kind": dict(self.slo_violations),
            "violated_requests": len(self.slo_violated_requests),
            "failed_requests": len(self._failures),
            "captures": len(self.flight.captures),
            "dropped_captures": getattr(self.flight, "dropped_captures", 0),
        }

    @property
    def records(self) -> List[RequestRecord]:
        return list(self._records)

    @property
    def failures(self) -> List[FailureRecord]:
        return list(self._failures)

    def __len__(self) -> int:
        return len(self._records)

    def stats(
        self,
        warmup: float = 0.0,
        until: Optional[float] = None,
    ) -> ServingStats:
        """Aggregate over requests finishing in ``(warmup, until]``.

        Raises:
            ValueError: if the window contains no requests.
        """
        window = [
            r
            for r in self._records
            if r.finish_time > warmup and (until is None or r.finish_time <= until)
        ]
        if not window:
            raise ValueError("no completed requests in the measurement window")
        finishes = [r.finish_time for r in window]
        start = warmup if warmup > 0 else min(r.arrival_time for r in window)
        duration = max(finishes) - start
        if duration <= 0:
            duration = max(finishes) or 1.0
        norm = np.array([r.normalized_latency for r in window])
        output_tokens = sum(r.output_tokens for r in window)
        failed = sum(
            1
            for f in self._failures
            if f.time > warmup and (until is None or f.time <= until)
        )
        return ServingStats(
            num_requests=len(window),
            duration=duration,
            throughput_rps=len(window) / duration,
            token_throughput=output_tokens / duration,
            mean_normalized_latency=float(norm.mean()),
            p50_normalized_latency=float(np.percentile(norm, 50)),
            p90_normalized_latency=float(np.percentile(norm, 90)),
            p99_normalized_latency=float(np.percentile(norm, 99)),
            mean_ttft=float(np.mean([r.ttft for r in window])),
            mean_latency=float(np.mean([r.latency for r in window])),
            total_prefilled_tokens=sum(r.prefilled_tokens for r in window),
            total_output_tokens=output_tokens,
            num_failed=failed,
        )
