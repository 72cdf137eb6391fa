"""Equivalence tests for the batched kernels.

The batched layer is a pure performance optimisation: every test here
pins its outputs to the per-request kernels (the correctness oracle)
across architectures, GQA ratios, ragged batches and sub-request
splits.  ``benchmarks/serving`` measures the speed; these tests pin the
math.
"""

import numpy as np
import pytest

from repro.kernels import (
    AttentionRequest,
    batched_single_token_attention,
    multi_token_attention,
    reference_attention,
    single_token_attention,
    ragged_multi_token_attention,
    split_disjoint_query,
)
from repro.kernels.ragged import TILE_ROWS, plan_tiles

from tests.kernels.conftest import make_request, scatter_context

TOL = dict(rtol=1e-9, atol=1e-9)


def make_batch(rng, ctx_lens, q_lens=None, num_heads=4, kv_heads=4, head_dim=8):
    """Disjoint scattered requests sharing one cache, plus logical K/V."""
    num_slots = 3 * sum(ctx_lens)
    k_cache = rng.standard_normal((num_slots, kv_heads, head_dim)) * 100
    v_cache = rng.standard_normal((num_slots, kv_heads, head_dim)) * 100
    perm = rng.permutation(num_slots)
    requests, used = [], 0
    q_lens = q_lens or [1] * len(ctx_lens)
    for ctx, q_len in zip(ctx_lens, q_lens):
        slots = list(perm[used : used + ctx])
        used += ctx
        k_cache[slots] = rng.standard_normal((ctx, kv_heads, head_dim))
        v_cache[slots] = rng.standard_normal((ctx, kv_heads, head_dim))
        query = rng.standard_normal((q_len, num_heads, head_dim))
        requests.append(AttentionRequest(query=query, slots=slots))
    return requests, k_cache, v_cache


class TestBatchedSingleToken:
    def test_matches_per_request_loop(self, rng):
        requests, k_cache, v_cache = make_batch(rng, [17, 5, 33, 1])
        batched = batched_single_token_attention(requests, k_cache, v_cache)
        loop = single_token_attention(requests, k_cache, v_cache)
        assert len(batched) == len(loop)
        for got, want in zip(batched, loop):
            np.testing.assert_allclose(got, want, **TOL)

    def test_matches_multi_token_q1(self, rng):
        """Decode is the q=1 special case of multi-token attention
        (§4.4.1) for the batched kernel too."""
        requests, k_cache, v_cache = make_batch(rng, [9, 24, 13])
        batched = batched_single_token_attention(requests, k_cache, v_cache)
        multi = multi_token_attention(requests, k_cache, v_cache)
        for got, want in zip(batched, multi):
            np.testing.assert_allclose(got, want, **TOL)

    def test_matches_logical_reference(self, rng):
        request, k_log, v_log, k_cache, v_cache = make_request(rng, q_len=1, ctx=27)
        out = batched_single_token_attention([request], k_cache, v_cache)[0]
        expected = reference_attention(request.query, k_log, v_log)
        np.testing.assert_allclose(out, expected, **TOL)

    @pytest.mark.parametrize("num_heads,kv_heads", [(8, 8), (8, 4), (8, 2), (8, 1)])
    def test_gqa_ratios(self, rng, num_heads, kv_heads):
        requests, k_cache, v_cache = make_batch(
            rng, [12, 30, 7], num_heads=num_heads, kv_heads=kv_heads
        )
        batched = batched_single_token_attention(requests, k_cache, v_cache)
        loop = single_token_attention(requests, k_cache, v_cache)
        for got, want in zip(batched, loop):
            np.testing.assert_allclose(got, want, **TOL)

    def test_uniform_lengths(self, rng):
        """Uniform-length batches take the no-mask fast path."""
        requests, k_cache, v_cache = make_batch(rng, [16, 16, 16, 16])
        batched = batched_single_token_attention(requests, k_cache, v_cache)
        loop = single_token_attention(requests, k_cache, v_cache)
        for got, want in zip(batched, loop):
            np.testing.assert_allclose(got, want, **TOL)

    def test_explicit_scale(self, rng):
        requests, k_cache, v_cache = make_batch(rng, [8, 19])
        batched = batched_single_token_attention(
            requests, k_cache, v_cache, scale=0.3
        )
        loop = single_token_attention(requests, k_cache, v_cache, scale=0.3)
        for got, want in zip(batched, loop):
            np.testing.assert_allclose(got, want, **TOL)

    def test_empty_batch(self, rng):
        k_cache = rng.standard_normal((4, 2, 8))
        assert batched_single_token_attention([], k_cache, k_cache) == []

    def test_rejects_multi_token_requests(self, rng):
        request, _, _, k_cache, v_cache = make_request(rng, q_len=3, ctx=10)
        with pytest.raises(ValueError, match="exactly one query token"):
            batched_single_token_attention([request], k_cache, v_cache)

    def test_rejects_interior_query(self, rng):
        request, _, _, k_cache, v_cache = make_request(
            rng, q_len=1, ctx=10, query_offset=4
        )
        with pytest.raises(ValueError, match="newest"):
            batched_single_token_attention([request], k_cache, v_cache)

    def test_rejects_heterogeneous_heads(self, rng):
        req_a, _, _, k_cache, v_cache = make_request(
            rng, q_len=1, ctx=6, num_heads=4, kv_heads=4, num_slots=64
        )
        query_b = np.zeros((1, 8, 8))
        req_b = AttentionRequest(query=query_b, slots=[s + 1 for s in req_a.slots[:3]])
        with pytest.raises(ValueError, match="heterogeneous"):
            batched_single_token_attention([req_a, req_b], k_cache, v_cache)


class TestVectorizedMultiToken:
    """Fixed-shape cases for the prefill/mixed kernel.  They were written
    for the per-request ``batched.py`` kernel that the tiled
    :func:`ragged_multi_token_attention` replaced and now pin the same
    behaviours on it, next to the random shapes of
    ``test_ragged_properties.py``."""

    @pytest.mark.parametrize("num_heads,kv_heads", [(4, 4), (8, 2), (8, 1)])
    def test_matches_tiled(self, rng, num_heads, kv_heads):
        """GQA grouping, with one query of three tiles among short ones."""
        requests, k_cache, v_cache = make_batch(
            rng,
            ctx_lens=[40, 170, 12],
            q_lens=[6, 2 * TILE_ROWS + 5, 12],
            num_heads=num_heads,
            kv_heads=kv_heads,
        )
        fast = ragged_multi_token_attention(requests, k_cache, v_cache)
        tiled = multi_token_attention(requests, k_cache, v_cache)
        for got, want in zip(fast, tiled):
            np.testing.assert_allclose(got, want, **TOL)

    def test_single_tile_fast_path(self, rng):
        """A one-tile bucket reads the caller's query rows in place; it
        must not write to them — not even with one head, where the
        grouped-head reshape is a view."""
        for num_heads, kv_heads in [(4, 2), (1, 1)]:
            requests, k_cache, v_cache = make_batch(
                rng, [40], q_lens=[31], num_heads=num_heads, kv_heads=kv_heads
            )
            assert plan_tiles([(31, 9)], num_heads) == [[(31, 40, 0, 0)]]
            before = requests[0].query.copy()
            fast = ragged_multi_token_attention(requests, k_cache, v_cache)[0]
            tiled = multi_token_attention(requests, k_cache, v_cache, tile=8)[0]
            np.testing.assert_allclose(fast, tiled, **TOL)
            np.testing.assert_array_equal(requests[0].query, before)

    def test_causal_masking_matches_reference(self, rng):
        """Partial-query (prefill continuation) masking is preserved."""
        ctx, q_len = 24, 9
        k_log, v_log, k_cache, v_cache, slots = scatter_context(
            rng, ctx, kv_heads=4, head_dim=8, num_slots=96
        )
        query = rng.standard_normal((q_len, 4, 8))
        request = AttentionRequest(query=query, slots=slots)
        fast = ragged_multi_token_attention([request], k_cache, v_cache)[0]
        expected = reference_attention(query, k_log, v_log)
        np.testing.assert_allclose(fast, expected, **TOL)

    def test_decode_shape_matches_batched(self, rng):
        """Both performance kernels agree on a q=1 batch."""
        requests, k_cache, v_cache = make_batch(rng, [15, 28, 3])
        fast = ragged_multi_token_attention(requests, k_cache, v_cache)
        batched = batched_single_token_attention(requests, k_cache, v_cache)
        for got, want in zip(fast, batched):
            np.testing.assert_allclose(got, want, **TOL)

    def test_subrequest_split_equivalence(self, rng):
        """Figure 8(d): attention over a split disjoint query — a
        recomputed prefix of more than one tile at a non-trailing
        ``query_offset`` — is unchanged."""
        total, dropped, num_query = 140, TILE_ROWS + 6, TILE_ROWS + 20
        k_log, v_log, k_cache, v_cache, slots = scatter_context(
            rng, total, kv_heads=4, head_dim=8, num_slots=300
        )
        query = rng.standard_normal((num_query, 4, 8))
        parts = split_disjoint_query(query, slots, dropped=dropped, shared_prefix=8)
        tiled = multi_token_attention(parts, k_cache, v_cache)
        fast = ragged_multi_token_attention(parts, k_cache, v_cache)
        for got, want in zip(fast, tiled):
            np.testing.assert_allclose(got, want, **TOL)

    def test_empty_query(self, rng):
        request = AttentionRequest(query=np.zeros((0, 4, 8)), slots=[0, 1])
        k_cache = rng.standard_normal((4, 4, 8))
        out = ragged_multi_token_attention([request], k_cache, k_cache)[0]
        assert out.shape == (0, 4, 8)
