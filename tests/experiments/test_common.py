"""Tests for the experiment machinery (sweeps, curve queries)."""

import pytest

from repro.experiments.common import (
    RatePoint,
    format_curve_table,
    run_rate_sweep,
    run_serving_once,
    throughput_at_latency,
)
from repro.serving import make_vllm
from repro.workload.dataset import SHAREGPT

from tests.serving.conftest import TINY, scripted_conversation, spec_with_capacity


def point(rate, thr, mean, p90=None):
    return RatePoint(
        request_rate=rate,
        throughput_rps=thr,
        mean_norm_latency=mean,
        p90_norm_latency=p90 if p90 is not None else mean * 1.5,
        num_requests=100,
        extras={},
    )


class TestThroughputAtLatency:
    def test_interpolates_at_crossing(self):
        curve = [point(1, 1.0, 0.05), point(2, 2.0, 0.10), point(4, 3.0, 0.30)]
        # Target 0.2 sits halfway between the 2nd and 3rd point.
        thr = throughput_at_latency(curve, 0.20)
        assert thr == pytest.approx(2.5)

    def test_plateau_returns_best_compliant(self):
        curve = [point(1, 1.0, 0.05), point(2, 2.0, 0.06)]
        assert throughput_at_latency(curve, 0.5) == 2.0

    def test_all_violating_returns_zero(self):
        curve = [point(1, 1.0, 0.9)]
        assert throughput_at_latency(curve, 0.1) == 0.0

    def test_reads_mean_latency_not_p90(self):
        curve = [point(1, 1.0, 0.05, p90=0.5)]
        assert throughput_at_latency(curve, 0.1) == 1.0

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            throughput_at_latency([], 0.1)

    def test_unsorted_input_handled(self):
        curve = [point(4, 3.0, 0.30), point(1, 1.0, 0.05), point(2, 2.0, 0.10)]
        assert throughput_at_latency(curve, 0.20) == pytest.approx(2.5)


class TestRunners:
    def factory(self):
        spec = spec_with_capacity(2048)
        return lambda loop: make_vllm(loop, TINY, spec)

    def test_run_serving_once(self):
        engine, stats = run_serving_once(
            self.factory(), [scripted_conversation(0, [(8, 5)])]
        )
        assert stats.num_requests == 1
        assert engine.name == "vLLM"

    def test_rate_sweep_produces_one_point_per_rate(self):
        points = run_rate_sweep(
            self.factory(), SHAREGPT, rates=[0.5, 1.0], duration=20.0, seed=3
        )
        assert [p.request_rate for p in points] == [0.5, 1.0]
        assert all(p.throughput_rps > 0 for p in points)

    def test_sweep_is_seed_reproducible(self):
        a = run_rate_sweep(self.factory(), SHAREGPT, [1.0], duration=20.0, seed=3)
        b = run_rate_sweep(self.factory(), SHAREGPT, [1.0], duration=20.0, seed=3)
        assert a[0].throughput_rps == b[0].throughput_rps
        assert a[0].mean_norm_latency == b[0].mean_norm_latency

    def test_extras_fn_applied(self):
        points = run_rate_sweep(
            self.factory(), SHAREGPT, [1.0], duration=20.0, seed=3,
            extras_fn=lambda engine: {"iters": engine.iterations},
        )
        assert points[0].extras["iters"] > 0

    def test_format_curve_table(self):
        text = format_curve_table("x", [point(1, 1.0, 0.05)])
        assert "x" in text and "1.000" in text
