"""Tests for trace-derived statistics."""

import pytest

from repro.analysis import (
    batch_occupancy,
    cache_summary,
    pcie_utilization,
    turn_latency_breakdown,
)
from repro.core import PensieveEngine
from repro.experiments.common import run_serving_once
from repro.gpu import PcieEngine
from repro.obs import Tracer
from repro.serving import make_vllm

from tests.serving.conftest import TINY, scripted_conversation, serve, spec_with_capacity


def pensieve(loop):
    return PensieveEngine(loop, TINY, spec_with_capacity(2048))


class TestCacheSummary:
    def test_multi_turn_hits(self):
        engine, _, _ = serve(
            pensieve, [scripted_conversation(0, [(10, 10), (5, 5), (3, 4)])]
        )
        summary = cache_summary(engine)
        assert summary.lookup_tokens > 0
        assert summary.hit_rate == 1.0  # abundant memory: everything hits
        assert summary.recompute_rate == 0.0
        assert "hit_rate" in summary.as_dict()

    def test_empty_run_degenerates_gracefully(self):
        engine, _, _ = serve(pensieve, [scripted_conversation(0, [(5, 3)])])
        summary = cache_summary(engine)
        # Single turn: nothing was ever looked up.
        assert summary.lookup_tokens == 0
        assert summary.hit_rate == 1.0
        assert summary.cpu_hit_rate == 0.0

    def test_three_tier_counts_disk_hits(self):
        """Every looked-up token is a hit in some tier or recomputed; a
        small disk tier makes the run do both."""
        engine, _, _ = serve(
            lambda loop: PensieveEngine(
                loop, TINY, spec_with_capacity(256), chunk_size=16,
                policy="lru", cpu_cache_tokens=128, disk_cache_tokens=512,
            ),
            [
                scripted_conversation(
                    i, [(40, 12), (12, 12), (12, 12)],
                    start=float(i), think=30.0,
                )
                for i in range(12)
            ],
        )
        summary = cache_summary(engine)
        assert summary.hit_rate + summary.recompute_rate == pytest.approx(1.0)
        assert summary.disk_hit_rate > 0
        assert summary.recompute_rate > 0
        assert summary.as_dict()["disk_hit_rate"] == round(summary.disk_hit_rate, 4)

    def test_stateless_engine_has_no_summary(self):
        engine, _, _ = serve(
            lambda loop: make_vllm(loop, TINY, spec_with_capacity(512)),
            [scripted_conversation(0, [(5, 3)])],
        )
        with pytest.raises(AttributeError):
            cache_summary(engine)


class TestBatchOccupancy:
    def test_occupancy_statistics(self):
        convs = [scripted_conversation(i, [(8, 20)]) for i in range(4)]
        engine, _ = run_serving_once(pensieve, convs, tracer=Tracer())
        occ = batch_occupancy(engine)
        assert occ.iterations == engine.iterations
        assert 1 <= occ.mean_batch <= 4
        assert occ.max_batch <= 4
        assert occ.mean_duration > 0
        assert occ.as_dict()["iterations"] == occ.iterations

    def test_requires_trace(self):
        engine, _, _ = serve(
            lambda loop: PensieveEngine(loop, TINY, spec_with_capacity(512)),
            [scripted_conversation(0, [(5, 3)])],
        )
        with pytest.raises(ValueError):
            batch_occupancy(engine)


class TestPcieUtilization:
    def test_busy_fractions(self):
        pcie = PcieEngine(bandwidth=1e9, min_latency=0.0)
        pcie.swap_in(0.0, 1e9)   # 1 s busy
        pcie.swap_out(5.0, 2e9)  # 2 s busy
        stats = pcie_utilization(pcie, duration=10.0)
        assert stats["h2d_busy_fraction"] == pytest.approx(0.1)
        assert stats["d2h_busy_fraction"] == pytest.approx(0.2)
        assert stats["h2d_gbytes"] == pytest.approx(1.0)
        assert stats["transfers"] == 2

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            pcie_utilization(PcieEngine(bandwidth=1e9), duration=0.0)


class TestTurnBreakdown:
    def test_per_turn_rows(self):
        convs = [
            scripted_conversation(i, [(10, 10), (5, 5), (3, 4)])
            for i in range(3)
        ]
        engine, _, _ = serve(pensieve, convs)
        breakdown = turn_latency_breakdown(engine.metrics.records)
        assert set(breakdown) == {0, 1, 2}
        assert breakdown[0]["count"] == 3
        # History grows with turn index.
        assert breakdown[2]["mean_history"] > breakdown[1]["mean_history"] > 0

    def test_stateless_prefill_grows_with_turns(self):
        convs = [scripted_conversation(0, [(10, 10), (5, 5), (3, 4)])]
        engine, _, _ = serve(
            lambda loop: make_vllm(loop, TINY, spec_with_capacity(512)), convs
        )
        breakdown = turn_latency_breakdown(engine.metrics.records)
        assert (
            breakdown[2]["mean_prefilled"]
            > breakdown[1]["mean_prefilled"]
            > breakdown[0]["mean_prefilled"]
        )
