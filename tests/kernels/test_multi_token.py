"""Tests for the multi-token paged attention kernel (the §4.4 contribution)."""

import numpy as np
import pytest

from repro.kernels import (
    AttentionRequest,
    multi_token_attention,
    reference_attention,
)

from tests.kernels.conftest import make_request, scatter_context


class TestAgainstReference:
    def test_matches_reference_on_scattered_slots(self, rng):
        """Physical placement must be invisible: the paged kernel on a
        scattered cache equals the reference on logical-order tensors."""
        request, k_log, v_log, k_cache, v_cache = make_request(rng, q_len=5, ctx=37)
        out = multi_token_attention([request], k_cache, v_cache)[0]
        expected = reference_attention(request.query, k_log, v_log)
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-9)

    def test_full_prefill(self, rng):
        """q == ctx: a fresh prompt (lower-triangular causal attention)."""
        request, k_log, v_log, k_cache, v_cache = make_request(rng, q_len=12, ctx=12)
        out = multi_token_attention([request], k_cache, v_cache)[0]
        expected = reference_attention(request.query, k_log, v_log)
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-9)

    def test_single_query_token(self, rng):
        """q == 1: the generation-phase special case."""
        request, k_log, v_log, k_cache, v_cache = make_request(rng, q_len=1, ctx=25)
        out = multi_token_attention([request], k_cache, v_cache)[0]
        expected = reference_attention(request.query, k_log, v_log)
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-9)

    def test_gqa_matches_reference(self, rng):
        request, k_log, v_log, k_cache, v_cache = make_request(
            rng, q_len=4, ctx=30, num_heads=8, kv_heads=2
        )
        out = multi_token_attention([request], k_cache, v_cache)[0]
        expected = reference_attention(request.query, k_log, v_log)
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-9)

    def test_gqa_equals_mha_with_repeated_kv(self, rng):
        """GQA must equal MHA run with each KV head explicitly repeated."""
        request, k_log, v_log, k_cache, v_cache = make_request(
            rng, q_len=3, ctx=20, num_heads=4, kv_heads=2
        )
        out = multi_token_attention([request], k_cache, v_cache)[0]
        k_rep = np.repeat(k_log, 2, axis=1)
        v_rep = np.repeat(v_log, 2, axis=1)
        expected = reference_attention(request.query, k_rep, v_rep)
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-9)


class TestCausality:
    def test_future_kv_does_not_influence_output(self, rng):
        """Corrupting context *behind* the causal horizon of every query
        token must not change any output (the fused mask of Figure 9)."""
        request, _, _, k_cache, v_cache = make_request(
            rng, q_len=4, ctx=32, query_offset=10
        )
        out1 = multi_token_attention([request], k_cache, v_cache)[0]
        # Positions 14..31 are invisible to all query tokens (last query
        # position is 13); trash their KV rows.
        for pos in range(14, 32):
            k_cache[request.slots[pos]] = 1e6
            v_cache[request.slots[pos]] = -1e6
        out2 = multi_token_attention([request], k_cache, v_cache)[0]
        np.testing.assert_array_equal(out1, out2)

    def test_visible_kv_does_influence_output(self, rng):
        request, _, _, k_cache, v_cache = make_request(rng, q_len=4, ctx=32)
        out1 = multi_token_attention([request], k_cache, v_cache)[0]
        v_cache[request.slots[0]] += 1.0  # visible to every query token
        out2 = multi_token_attention([request], k_cache, v_cache)[0]
        assert not np.allclose(out1, out2)

    def test_earlier_query_token_sees_strictly_less(self, rng):
        """Query token i's output is independent of query tokens > i."""
        request, k_log, v_log, k_cache, v_cache = make_request(rng, q_len=6, ctx=24)
        full = multi_token_attention([request], k_cache, v_cache)[0]
        trimmed = AttentionRequest(
            query=request.query[:3],
            slots=request.slots,
            query_offset=request.query_offset,
        )
        partial = multi_token_attention([trimmed], k_cache, v_cache)[0]
        np.testing.assert_allclose(full[:3], partial, rtol=1e-9, atol=1e-9)


class TestBatching:
    def test_ragged_batch_mixed_phases(self, rng):
        """A unified batch: one generation-phase request (q=1) and one
        prefill-phase request (q=9) in the same kernel call (§4.4.1)."""
        req_a, k_log_a, v_log_a, k_cache, v_cache = make_request(
            rng, q_len=1, ctx=17, num_slots=200
        )
        # Second request shares the same physical cache arrays.
        k_log_b = rng.standard_normal((9, 4, 8))
        v_log_b = rng.standard_normal((9, 4, 8))
        used = set(req_a.slots)
        free = [s for s in range(200) if s not in used]
        slots_b = list(rng.permutation(free)[:9])
        k_cache[slots_b] = k_log_b
        v_cache[slots_b] = v_log_b
        req_b = AttentionRequest(
            query=rng.standard_normal((9, 4, 8)), slots=slots_b
        )
        outs = multi_token_attention([req_a, req_b], k_cache, v_cache)
        np.testing.assert_allclose(
            outs[0],
            reference_attention(req_a.query, k_log_a, v_log_a),
            rtol=1e-9, atol=1e-9,
        )
        np.testing.assert_allclose(
            outs[1],
            reference_attention(req_b.query, k_log_b, v_log_b),
            rtol=1e-9, atol=1e-9,
        )

    def test_batch_output_count(self, rng):
        reqs = []
        _, _, _, k_cache, v_cache = make_request(rng, 1, 4, num_slots=500)
        for q_len in (1, 3, 7):
            r, _, _, kc, vc = make_request(rng, q_len, q_len + 5, num_slots=500)
            k_cache[r.slots] = kc[r.slots]
            v_cache[r.slots] = vc[r.slots]
            reqs.append(r)
        outs = multi_token_attention(reqs, k_cache, v_cache)
        assert [o.shape[0] for o in outs] == [1, 3, 7]

    def test_empty_batch(self, rng):
        _, _, _, k_cache, v_cache = make_request(rng, 1, 4)
        assert multi_token_attention([], k_cache, v_cache) == []


class TestTiling:
    @pytest.mark.parametrize("tile", [1, 2, 7, 16, 48, 1000])
    def test_tile_size_does_not_change_result(self, rng, tile):
        request, k_log, v_log, k_cache, v_cache = make_request(rng, q_len=6, ctx=53)
        out = multi_token_attention([request], k_cache, v_cache, tile=tile)[0]
        expected = reference_attention(request.query, k_log, v_log)
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-9)

    def test_invalid_tile_rejected(self, rng):
        request, _, _, k_cache, v_cache = make_request(rng, 2, 8)
        with pytest.raises(ValueError):
            multi_token_attention([request], k_cache, v_cache, tile=0)


class TestNumericalStability:
    def test_large_scores_do_not_overflow(self, rng):
        """Online softmax must survive scores far beyond exp() range."""
        ctx, q_len = 40, 4
        _, _, k_cache, v_cache, slots = scatter_context(rng, ctx, 2, 4, 100)
        k_cache[slots] *= 200.0
        query = rng.standard_normal((q_len, 2, 4)) * 200.0
        request = AttentionRequest(query=query, slots=slots)
        out = multi_token_attention([request], k_cache, v_cache)[0]
        assert np.all(np.isfinite(out))

    def test_uniform_scores_average_values(self, rng):
        """Zero queries -> uniform weights -> output is the causal mean."""
        ctx = 12
        kv_heads, head_dim = 2, 4
        _, v_log, k_cache, v_cache, slots = scatter_context(
            rng, ctx, kv_heads, head_dim, 40
        )
        query = np.zeros((ctx, 2, 4))
        request = AttentionRequest(query=query, slots=slots)
        out = multi_token_attention([request], k_cache, v_cache)[0]
        for i in range(ctx):
            np.testing.assert_allclose(
                out[i], v_log[: i + 1].mean(axis=0), rtol=1e-9, atol=1e-9
            )


class TestValidation:
    def test_cache_shape_mismatch(self, rng):
        request, _, _, k_cache, v_cache = make_request(rng, 2, 8)
        with pytest.raises(ValueError):
            multi_token_attention([request], k_cache, v_cache[:-1])

    def test_request_validation(self, rng):
        with pytest.raises(ValueError):
            AttentionRequest(query=np.zeros((2, 2)), slots=[0, 1])  # rank 2
        with pytest.raises(ValueError):
            AttentionRequest(query=np.zeros((5, 2, 4)), slots=[0, 1])  # q > ctx
        with pytest.raises(ValueError):
            AttentionRequest(
                query=np.zeros((2, 2, 4)), slots=[0, 1, 2], query_offset=2
            )  # offset + q > ctx
