"""Tests for the metrics collector."""

import pytest

from repro.faults import FaultCounters
from repro.serving import Conversation, MetricsCollector, Request, Turn


def finished_request(request_id, arrival, finish, first_token=None, output=10):
    req = Request(
        request_id=request_id,
        conversation=Conversation(
            conv_id=request_id, turns=[Turn(prompt_tokens=5, output_tokens=output)]
        ),
        turn_index=0,
        arrival_time=arrival,
    )
    req.finish_time = finish
    req.first_token_time = first_token if first_token is not None else arrival + 0.1
    req.prefill_tokens = 5
    return req


class TestComplete:
    def test_records_fields(self):
        collector = MetricsCollector()
        record = collector.complete(finished_request(1, 0.0, 2.0))
        assert record.latency == 2.0
        assert record.normalized_latency == pytest.approx(0.2)
        assert record.ttft == pytest.approx(0.1)
        assert len(collector) == 1

    def test_incomplete_request_rejected(self):
        collector = MetricsCollector()
        req = finished_request(1, 0.0, 2.0)
        req.finish_time = None
        with pytest.raises(RuntimeError):
            collector.complete(req)


class TestStats:
    def test_throughput_and_latency(self):
        collector = MetricsCollector()
        for i in range(10):
            collector.complete(finished_request(i, float(i), float(i) + 2.0))
        stats = collector.stats()
        # 10 requests finishing between t=2 and t=11, arrivals from t=0.
        assert stats.num_requests == 10
        assert stats.throughput_rps == pytest.approx(10 / 11.0)
        assert stats.mean_normalized_latency == pytest.approx(0.2)
        assert stats.p90_normalized_latency == pytest.approx(0.2)
        assert stats.total_output_tokens == 100

    def test_warmup_window_excludes_early_finishes(self):
        collector = MetricsCollector()
        collector.complete(finished_request(1, 0.0, 1.0))
        collector.complete(finished_request(2, 5.0, 7.0))
        stats = collector.stats(warmup=2.0)
        assert stats.num_requests == 1
        assert stats.throughput_rps == pytest.approx(1 / 5.0)

    def test_until_window(self):
        collector = MetricsCollector()
        collector.complete(finished_request(1, 0.0, 1.0))
        collector.complete(finished_request(2, 0.0, 10.0))
        stats = collector.stats(until=5.0)
        assert stats.num_requests == 1

    def test_empty_window_raises(self):
        collector = MetricsCollector()
        with pytest.raises(ValueError):
            collector.stats()

    def test_percentiles_ordered(self):
        collector = MetricsCollector()
        for i in range(50):
            collector.complete(
                finished_request(i, 0.0, 1.0 + i * 0.5, output=10)
            )
        stats = collector.stats()
        assert (
            stats.p50_normalized_latency
            <= stats.p90_normalized_latency
            <= stats.p99_normalized_latency
        )

    def test_as_dict_round_numbers(self):
        collector = MetricsCollector()
        collector.complete(finished_request(1, 0.0, 2.0))
        d = collector.stats().as_dict()
        assert d["num_requests"] == 1
        assert "p90_norm_latency_ms" in d


class TestFaultCounters:
    def test_collector_carries_fault_counters(self):
        collector = MetricsCollector()
        assert isinstance(collector.faults, FaultCounters)
        assert collector.faults.total == 0

    def test_counters_accumulate_independently_of_records(self):
        collector = MetricsCollector()
        collector.faults.retries += 2
        collector.faults.swap_in_failures += 1
        collector.faults.recompute_fallbacks += 1
        assert collector.faults.total == 4
        assert len(collector) == 0  # request records are untouched

    def test_as_dict_snapshot(self):
        collector = MetricsCollector()
        collector.faults.degraded_requests = 3
        d = collector.faults.as_dict()
        assert d["degraded_requests"] == 3
        # A snapshot, not a live view.
        collector.faults.degraded_requests = 5
        assert d["degraded_requests"] == 3

    def test_fresh_collectors_do_not_share_counters(self):
        a, b = MetricsCollector(), MetricsCollector()
        a.faults.retries = 7
        assert b.faults.retries == 0


class TestFailures:
    def test_fail_records_and_counts(self):
        collector = MetricsCollector()
        req = finished_request(7, 0.0, 2.0)
        record = collector.fail(req, now=1.5, reason="gpu_alloc")
        assert record.request_id == 7
        assert record.reason == "gpu_alloc"
        assert collector.failures == [record]
        assert record.as_dict()["reason"] == "gpu_alloc"

    def test_stats_include_num_failed(self):
        collector = MetricsCollector()
        collector.complete(finished_request(1, 0.0, 2.0))
        collector.fail(finished_request(2, 0.0, 9.9), now=1.0, reason="swap_in")
        stats = collector.stats()
        assert stats.num_failed == 1
        assert stats.as_dict()["num_failed"] == 1

    def test_failures_respect_warmup_and_until_windows(self):
        collector = MetricsCollector()
        collector.complete(finished_request(1, 0.0, 4.0))
        collector.fail(finished_request(2, 0.0, 0.0), now=1.0, reason="early")
        collector.fail(finished_request(3, 0.0, 0.0), now=6.0, reason="late")
        assert collector.stats(warmup=2.0).num_failed == 1  # "early" excluded
        assert collector.stats(until=5.0).num_failed == 1  # "late" excluded

    def test_as_dict_has_throughput_and_latency_fields(self):
        collector = MetricsCollector()
        collector.complete(finished_request(1, 0.0, 2.0))
        d = collector.stats().as_dict()
        for key in ("token_throughput", "mean_latency_ms", "output_tokens",
                    "num_failed"):
            assert key in d


class TestNormalizedLatencyGuard:
    def test_zero_output_tokens_does_not_divide_by_zero(self):
        from repro.serving.metrics import RequestRecord

        record = RequestRecord(
            request_id=1, conv_id=1, turn_index=0,
            arrival_time=0.0, finish_time=2.0, first_token_time=0.1,
            prompt_tokens=5, history_tokens=0, output_tokens=0,
            prefilled_tokens=5,
        )
        assert record.normalized_latency == pytest.approx(2.0)
