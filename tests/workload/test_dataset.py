"""Tests for the synthetic conversation datasets (Table 2)."""

import math

import numpy as np
import pytest

from repro.workload import SHAREGPT, ULTRACHAT, DatasetSpec, dataset_statistics
from repro.workload.dataset import (
    generate_conversation,
    generate_conversations,
    generate_workload,
)


class TestSpecs:
    def test_paper_parameters(self):
        assert SHAREGPT.mean_turns == 5.56
        assert SHAREGPT.mean_input_len == 37.77
        assert SHAREGPT.mean_output_len == 204.58
        assert ULTRACHAT.mean_turns == 3.86
        assert ULTRACHAT.mean_input_len == 51.78
        assert ULTRACHAT.mean_output_len == 257.81

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec("x", mean_turns=0.5, mean_input_len=10, mean_output_len=10)
        with pytest.raises(ValueError):
            DatasetSpec("x", mean_turns=2, mean_input_len=0, mean_output_len=10)


class TestGeneratedStatistics:
    @pytest.mark.parametrize("spec", [SHAREGPT, ULTRACHAT], ids=lambda s: s.name)
    def test_means_match_table2(self, spec):
        """Generated corpora must reproduce Table 2 within sampling noise."""
        convs = [
            generate_conversation(spec, i, np.random.default_rng(1000 + i))
            for i in range(4000)
        ]
        stats = dataset_statistics(convs)
        assert stats["mean_turns"] == pytest.approx(spec.mean_turns, rel=0.1)
        assert stats["mean_input_len"] == pytest.approx(spec.mean_input_len, rel=0.1)
        assert stats["mean_output_len"] == pytest.approx(
            spec.mean_output_len, rel=0.1
        )

    def test_context_cap_respected(self):
        convs = [
            generate_conversation(SHAREGPT, i, np.random.default_rng(i))
            for i in range(2000)
        ]
        assert max(c.total_tokens() for c in convs) <= SHAREGPT.max_context

    def test_every_conversation_has_a_turn(self):
        tiny_cap = DatasetSpec(
            "cap", mean_turns=3, mean_input_len=50, mean_output_len=300,
            max_context=128,
        )
        convs = [
            generate_conversation(tiny_cap, i, np.random.default_rng(i))
            for i in range(200)
        ]
        assert all(c.num_turns >= 1 for c in convs)
        assert all(c.total_tokens() <= 128 for c in convs)

    def test_lengths_heavy_tailed(self):
        """Lognormal outputs: p99 well above the mean (matches real chat)."""
        convs = [
            generate_conversation(SHAREGPT, i, np.random.default_rng(i))
            for i in range(2000)
        ]
        outputs = [t.output_tokens for c in convs for t in c.turns]
        assert np.percentile(outputs, 99) > 3 * np.mean(outputs)


class TestTimedWorkloads:
    def test_generate_conversations_reproducible(self):
        a = generate_conversations(SHAREGPT, 50, request_rate=2.0, seed=5)
        b = generate_conversations(SHAREGPT, 50, request_rate=2.0, seed=5)
        assert [c.start_time for c in a] == [c.start_time for c in b]
        assert [c.num_turns for c in a] == [c.num_turns for c in b]

    def test_think_times_populated(self):
        convs = generate_conversations(
            SHAREGPT, 50, request_rate=2.0, think_time_mean=30.0, seed=5
        )
        flat = [t for c in convs for t in c.think_times]
        assert np.mean(flat) == pytest.approx(30.0, rel=0.25)

    def test_request_rate_controls_arrival_density(self):
        slow = generate_conversations(SHAREGPT, 200, request_rate=1.0, seed=5)
        fast = generate_conversations(SHAREGPT, 200, request_rate=8.0, seed=5)
        assert max(c.start_time for c in fast) < max(c.start_time for c in slow)

    def test_workload_spans_duration(self):
        convs = generate_workload(SHAREGPT, request_rate=4.0, duration=300.0, seed=3)
        starts = [c.start_time for c in convs]
        assert max(starts) <= 300.0
        assert max(starts) > 200.0  # arrivals sustained to the end
        total_requests = sum(c.num_turns for c in convs)
        # Long-run request rate close to the target.
        assert total_requests / 300.0 == pytest.approx(4.0, rel=0.3)

    def test_workload_never_empty(self):
        convs = generate_workload(SHAREGPT, request_rate=0.001, duration=1.0, seed=3)
        assert len(convs) >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_workload(SHAREGPT, request_rate=0, duration=10)
        with pytest.raises(ValueError):
            generate_workload(SHAREGPT, request_rate=1, duration=0)
        with pytest.raises(ValueError):
            generate_conversations(SHAREGPT, 0, request_rate=1)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["request_rate", "duration", "think_time_mean"])
    def test_non_finite_inputs_rejected(self, name, value):
        """NaN fails every compare, so an ``x <= 0`` check passes it: a
        NaN rate or duration would give one conversation, a NaN mean NaN
        think times.  An infinite duration would never leave the arrival
        loop."""
        params = dict(request_rate=1.0, duration=30.0, think_time_mean=60.0)
        params[name] = value
        with pytest.raises(ValueError, match="finite"):
            generate_workload(SHAREGPT, **params)
        if name != "duration":  # generate_conversations has no horizon
            del params["duration"]
            with pytest.raises(ValueError, match="finite"):
                generate_conversations(SHAREGPT, 5, **params)
