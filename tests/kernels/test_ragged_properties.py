"""Property-based tests (hypothesis) for the fully-ragged batched kernel.

The contract of :func:`ragged_multi_token_attention` is numerical
equivalence with the per-request tiled oracle within 1e-9 for *any*
unified batch — mixed prefill/decode query lengths, Figure 8(d)
dropped-prefix recompute splits, shared system-prompt slots, every GQA
grouping — across the kernel's query-tile and shape-bucket boundaries,
and a plan (:func:`plan_tiles`) that is a function of the batch's shapes
alone.

Mutation record.  ``test_ragged_equals_tiled_oracle`` was run against two
seeded bugs in ``kernels/ragged.py`` and fails both:

- a tile's first position off by one (``first = visibles - tile_rows + 1``
  in ``_attend_tiles``);
- a tile's visible length not clamped to its own last row (``plan_tiles``
  emitting ``offset + q_len`` for every tile of a request).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import (
    AttentionRequest,
    multi_token_attention,
    ragged_multi_token_attention,
)
from repro.kernels import ragged
from repro.kernels.ragged import (
    MAX_PADDING_RATIO,
    MAX_SCORE_ELEMENTS,
    TILE_ROWS,
    plan_tiles,
)

TOL = dict(rtol=1e-9, atol=1e-9)

#: Row counts on both sides of one, two and three tile boundaries.
ROW_COUNTS = [0, 1, 2, 5, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 130, 200]


@st.composite
def ragged_batch(draw):
    """A random unified batch over one scattered KV cache.

    Returns ``(requests, k_cache, v_cache)`` with per-request query
    lengths (0 allowed), context lengths, query offsets (0 = recompute
    split), and optionally a shared slot prefix across all requests.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    kv_heads = draw(st.sampled_from([1, 2, 3]))
    group = draw(st.sampled_from([1, 2, 4]))
    num_heads = kv_heads * group
    head_dim = draw(st.sampled_from([1, 4, 8]))
    shared_prefix = draw(st.sampled_from([0, 3, TILE_ROWS + 6]))
    shapes = []
    for _ in range(n):
        q_len = draw(st.sampled_from(ROW_COUNTS))
        # Contexts of up to several tiles, the query anywhere inside.
        extra = draw(st.integers(min_value=0, max_value=3 * TILE_ROWS))
        own_ctx = max(q_len + extra, 1)
        offset = draw(st.integers(min_value=0, max_value=own_ctx - q_len))
        shapes.append((q_len, own_ctx, offset))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))

    rng = np.random.default_rng(seed)
    total = shared_prefix + sum(ctx for _, ctx, _ in shapes)
    num_slots = total + draw(st.integers(min_value=0, max_value=16))
    k_cache = rng.standard_normal((num_slots, kv_heads, head_dim))
    v_cache = rng.standard_normal((num_slots, kv_heads, head_dim))
    perm = rng.permutation(num_slots)
    prefix = list(perm[:shared_prefix])
    used = shared_prefix
    requests = []
    for q_len, own_ctx, offset in shapes:
        own = list(perm[used : used + own_ctx])
        used += own_ctx
        query = rng.standard_normal((q_len, num_heads, head_dim))
        requests.append(
            AttentionRequest(
                query=query,
                slots=prefix + own,
                query_offset=shared_prefix + offset,
            )
        )
    return requests, k_cache, v_cache


@settings(max_examples=60, deadline=None)
@given(batch=ragged_batch())
def test_ragged_equals_tiled_oracle(batch):
    """For any unified batch shape, the one-shot ragged kernel matches
    the per-request tiled oracle well within the 1e-6 contract."""
    requests, k_cache, v_cache = batch
    expected = multi_token_attention(requests, k_cache, v_cache)
    out = ragged_multi_token_attention(requests, k_cache, v_cache)
    assert len(out) == len(expected)
    for o, e in zip(out, expected):
        assert o.shape == e.shape
        np.testing.assert_allclose(o, e, **TOL)


@settings(max_examples=200, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(
            st.sampled_from(ROW_COUNTS + [1000]),
            st.integers(min_value=0, max_value=5 * TILE_ROWS),
        ),
        min_size=1,
        max_size=10,
    ),
    num_heads=st.sampled_from([1, 8, 1 << 16]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_plan_covers_every_row_once_within_bounds(shapes, num_heads, seed):
    """The planner alone: every query row in exactly one tile, every tile
    an ordinary trailing query, every bucket padded ≤ 1.25x its useful
    area (or a single tile) and within the budget (or a single row), and
    the same plan shape whatever order the requests arrive in."""
    buckets = plan_tiles(shapes, num_heads)
    covered = [np.zeros(q_len, dtype=int) for q_len, _ in shapes]
    for bucket in buckets:
        assert bucket
        useful = 0
        for rows, visible, index, start in bucket:
            assert 1 <= rows <= TILE_ROWS
            assert visible == shapes[index][1] + start + rows
            covered[index][start : start + rows] += 1
            useful += rows * visible
        padded = (
            len(bucket)
            * max(tile[0] for tile in bucket)
            * max(tile[1] for tile in bucket)
        )
        assert len(bucket) == 1 or padded <= MAX_PADDING_RATIO * useful
        assert padded * num_heads <= MAX_SCORE_ELEMENTS or (
            len(bucket) == 1 and bucket[0][0] == 1
        )
    for counts in covered:
        assert (counts == 1).all()

    order = np.random.default_rng(seed).permutation(len(shapes))
    shuffled = plan_tiles([shapes[i] for i in order], num_heads)
    assert [[tile[:2] for tile in bucket] for bucket in shuffled] == [
        [tile[:2] for tile in bucket] for bucket in buckets
    ]


def test_budget_limited_plan_is_equivalent(monkeypatch):
    """With the element budget shrunk until it cuts tiles to a few rows
    and closes every bucket early, outputs still match the oracle —
    callers cannot observe the budget."""
    monkeypatch.setattr(ragged, "MAX_SCORE_ELEMENTS", 2048)
    rng = np.random.default_rng(11)
    k_cache = rng.standard_normal((200, 2, 4))
    v_cache = rng.standard_normal((200, 2, 4))
    perm = rng.permutation(200)
    requests = [
        AttentionRequest(
            query=rng.standard_normal((q_len, 4, 4)),
            slots=list(perm[lo : lo + ctx]),
            query_offset=offset,
        )
        for q_len, lo, ctx, offset in [(70, 0, 100, 20), (5, 100, 40, 35), (1, 140, 30, 29)]
    ]
    buckets = plan_tiles([(70, 20), (5, 35), (1, 29)], 4)
    assert max(tile[0] for bucket in buckets for tile in bucket) < 10
    expected = multi_token_attention(requests, k_cache, v_cache)
    out = ragged_multi_token_attention(requests, k_cache, v_cache)
    for o, e in zip(out, expected):
        np.testing.assert_allclose(o, e, **TOL)


def _split_pair(rng, num_heads, kv_heads, head_dim, dropped, tail_ctx):
    """One conversation split per Figure 8(d): a dropped-prefix
    recompute sub-request (queries at position 0) plus the tail
    sub-request attending over the full context."""
    ctx = dropped + tail_ctx
    num_slots = ctx + 8
    k_cache = rng.standard_normal((num_slots, kv_heads, head_dim))
    v_cache = rng.standard_normal((num_slots, kv_heads, head_dim))
    slots = list(rng.permutation(num_slots)[:ctx])
    recompute = AttentionRequest(
        query=rng.standard_normal((dropped, num_heads, head_dim)),
        slots=slots,
        query_offset=0,
    )
    tail = AttentionRequest(
        query=rng.standard_normal((tail_ctx, num_heads, head_dim)),
        slots=slots,
        query_offset=dropped,
    )
    return [recompute, tail], k_cache, v_cache


def test_recompute_split_batch_matches_oracle():
    """A batch of Figure 8(d) split pairs (shared slots within each
    pair, segment-masked prefix queries) matches the oracle."""
    rng = np.random.default_rng(7)
    requests, k_cache, v_cache = _split_pair(rng, 8, 2, 8, dropped=5, tail_ctx=9)
    more, k2, v2 = _split_pair(rng, 8, 2, 8, dropped=3, tail_ctx=4)
    # Merge the two pairs into one cache/batch.
    offset = k_cache.shape[0]
    k_cache = np.concatenate([k_cache, k2])
    v_cache = np.concatenate([v_cache, v2])
    for r in more:
        r.slots = [s + offset for s in r.slots]
    batch = requests + more
    expected = multi_token_attention(batch, k_cache, v_cache)
    out = ragged_multi_token_attention(batch, k_cache, v_cache)
    for o, e in zip(out, expected):
        np.testing.assert_allclose(o, e, **TOL)


def test_empty_batch_returns_empty_list():
    k_cache = np.zeros((4, 2, 8))
    assert ragged_multi_token_attention([], k_cache, k_cache) == []


def test_zero_length_queries_yield_empty_outputs():
    rng = np.random.default_rng(3)
    k_cache = rng.standard_normal((32, 2, 4))
    v_cache = rng.standard_normal((32, 2, 4))
    perm = rng.permutation(32)
    empty = AttentionRequest(
        query=np.empty((0, 4, 4)), slots=list(perm[:6])
    )
    real = AttentionRequest(
        query=rng.standard_normal((3, 4, 4)), slots=list(perm[6:16])
    )
    out = ragged_multi_token_attention([empty, real, empty], k_cache, v_cache)
    assert out[0].shape == (0, 4, 4) and out[2].shape == (0, 4, 4)
    expected = multi_token_attention([real], k_cache, v_cache)[0]
    np.testing.assert_allclose(out[1], expected, **TOL)
    # One output per request — distinct objects — and one dtype rule for
    # empty and non-empty outputs, whatever the cache's own dtype.
    assert out[0] is not out[2]
    mixed = ragged_multi_token_attention(
        [empty, real], k_cache.astype(np.float32), v_cache.astype(np.float32)
    )
    assert mixed[0].dtype == mixed[1].dtype == np.float64


def test_heterogeneous_head_counts_rejected():
    rng = np.random.default_rng(0)
    k_cache = rng.standard_normal((16, 2, 4))
    v_cache = rng.standard_normal((16, 2, 4))
    a = AttentionRequest(query=rng.standard_normal((2, 4, 4)), slots=[0, 1])
    b = AttentionRequest(query=rng.standard_normal((2, 2, 4)), slots=[2, 3])
    with pytest.raises(ValueError):
        ragged_multi_token_attention([a, b], k_cache, v_cache)


def test_cache_shape_mismatch_rejected():
    rng = np.random.default_rng(0)
    k_cache = rng.standard_normal((16, 2, 4))
    v_cache = rng.standard_normal((16, 2, 8))
    r = AttentionRequest(query=rng.standard_normal((1, 4, 4)), slots=[0, 1])
    with pytest.raises(ValueError):
        ragged_multi_token_attention([r], k_cache, v_cache)
