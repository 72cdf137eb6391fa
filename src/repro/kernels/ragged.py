"""Fully-ragged batched multi-token attention (tiled, shape-bucketed).

Pensieve's unified batches (§4.2, §4.4.1) are the *mixed* case — prefill
requests, Figure 8(d) recompute-split sub-requests and decode requests in
one iteration.  The paper's kernel gives every request its own
query-token tiles and fuses the causal mask, so its cost follows each
request's query × *visible*-context area.  This module is the numpy
stand-in with the same cost rule; it is the only prefill/mixed kernel.

- **Query tiles** (:func:`plan_tiles`): every request's query rows are cut
  into tiles of at most :data:`TILE_ROWS` rows.  A tile is an ordinary
  trailing query — its rows sit at the end of the context prefix visible
  to its own last row — so tiling skips the part of the causal triangle
  above it.  Only auxiliary indices change (the Figure 8(d) trick applied
  to the triangle); no KV moves.
- **Shape buckets**: tiles are sorted by ``(rows, visible)`` and packed
  greedily; a bucket closes when the next tile would push its padded
  score elements past :data:`MAX_PADDING_RATIO` times its useful ones, or
  past :data:`MAX_SCORE_ELEMENTS`.  Padding is therefore bounded by
  construction and needs no guard or second kernel.
- **One packed pass per bucket**: one slot-table gather over the paged
  cache, grouped-head GQA matmuls (``[tiles, kv_heads, rows * group,
  head_dim]``, plain batched BLAS, no broadcast K/V copies), one additive
  mask fusing the causal diagonal with each tile's context boundary, one
  softmax, one weighted sum.  A one-tile bucket reads its query rows and
  slots in place instead of padding them.

The plan is a pure function of the batch's ``(num_query_tokens,
query_offset)`` list — never of slot values, tensor contents or history —
so equal batch shapes take equal paths and produce bit-identical results
(the chaos differentials in ``tests/faults`` rely on it).

Numerical equivalence (≤ 1e-9 in fp64) to the per-request
:func:`~repro.kernels.multi_token.multi_token_attention` oracle across
tile and bucket boundaries is pinned by
``tests/kernels/test_ragged_properties.py``; the serving benchmark
reports the kernel's cost as the ``backend.ragged_attention_s`` layer.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.kernels.batched import _check_denominator, _grouped_heads
from repro.kernels.reference import attention_scale
from repro.kernels.request import AttentionRequest

#: Query rows per tile.  A tile pays for ``rows x visible`` scores, so the
#: causal waste per tile is at most half a ``TILE_ROWS``-square.
TILE_ROWS = 64

#: A bucket's padded score elements never exceed this multiple of its
#: useful ones (``sum(rows * visible)``) unless it holds a single tile.
MAX_PADDING_RATIO = 1.25

#: Score-tensor element budget of one bucket (``[tiles, heads, rows,
#: visible]``; ~64 MiB as float32, the model's dtype over the default
#: cache).  A tile whose context alone would exceed it is cut to fewer
#: rows.
MAX_SCORE_ELEMENTS = 1 << 24

#: ``(rows, visible, request, row_start)``: query rows ``[row_start,
#: row_start + rows)`` of ``requests[request]``, attending to the first
#: ``visible`` context slots with the tile's last row at position
#: ``visible - 1``.
Tile = Tuple[int, int, int, int]


def plan_tiles(
    shapes: Sequence[Tuple[int, int]], num_heads: int
) -> List[List[Tile]]:
    """Cut a ragged batch into query tiles and group them into buckets.

    Args:
        shapes: ``(num_query_tokens, query_offset)`` per request.
        num_heads: query heads (the score budget counts every head).

    Returns:
        Buckets of :data:`Tile` tuples.  Every query row of every request
        lies in exactly one tile; each bucket is padded to at most
        :data:`MAX_PADDING_RATIO` times its useful area (or is a single
        tile) and stays within :data:`MAX_SCORE_ELEMENTS`.
    """
    budget = MAX_SCORE_ELEMENTS // num_heads
    tiles: List[Tile] = []
    for index, (q_len, offset) in enumerate(shapes):
        start = 0
        while start < q_len:
            rows = min(TILE_ROWS, q_len - start)
            rows = max(1, min(rows, budget // (offset + start + rows)))
            tiles.append((rows, offset + start + rows, index, start))
            start += rows
    tiles.sort()

    buckets: List[List[Tile]] = []
    bucket: List[Tile] = []
    useful = max_rows = max_visible = 0
    for tile in tiles:
        rows, visible = tile[0], tile[1]
        padded = (
            (len(bucket) + 1) * max(max_rows, rows) * max(max_visible, visible)
        )
        if bucket and (
            padded > MAX_PADDING_RATIO * (useful + rows * visible)
            or padded > budget
        ):
            buckets.append(bucket)
            bucket = []
            useful = max_rows = max_visible = 0
        bucket.append(tile)
        useful += rows * visible
        max_rows = max(max_rows, rows)
        max_visible = max(max_visible, visible)
    if bucket:
        buckets.append(bucket)
    return buckets


def ragged_multi_token_attention(
    requests: Sequence[AttentionRequest],
    k_cache: np.ndarray,
    v_cache: np.ndarray,
) -> List[np.ndarray]:
    """Attention for a whole ragged prefill/mixed batch.

    Semantically identical to
    :func:`~repro.kernels.multi_token.multi_token_attention` (same
    request semantics: positioned queries, non-contiguous slots, fused
    causal masking, GQA); the batch runs as one packed computation per
    shape bucket of :func:`plan_tiles` instead of a Python loop over
    requests.

    Args:
        requests: the ragged batch; query counts and context lengths may
            differ arbitrarily, and query chunks may sit *inside* their
            context (Figure 8(d) sub-requests).
        k_cache / v_cache: ``[num_slots, kv_heads, head_dim]`` slot
            arrays for one layer.

    Returns:
        One ``[num_query_tokens, num_heads, head_dim]`` output per
        request, in request order.
    """
    if k_cache.shape != v_cache.shape:
        raise ValueError(
            f"K/V cache shape mismatch: {k_cache.shape} vs {v_cache.shape}"
        )
    if not requests:
        return []
    kv_heads, head_dim = k_cache.shape[1], k_cache.shape[2]
    scale = attention_scale(head_dim)
    num_heads = requests[0].num_heads
    for request in requests:
        if request.num_heads != num_heads:
            raise ValueError(
                f"heterogeneous head counts in ragged batch: "
                f"{request.num_heads} vs {num_heads}"
            )
    group = _grouped_heads(num_heads, kv_heads)

    dtype = np.result_type(requests[0].query, k_cache)
    outputs = [
        np.empty((r.num_query_tokens, num_heads, head_dim), dtype=dtype)
        for r in requests
    ]
    shapes = [(r.num_query_tokens, r.query_offset) for r in requests]
    for bucket in plan_tiles(shapes, num_heads):
        tile_rows = np.array([tile[0] for tile in bucket])
        visibles = np.array([tile[1] for tile in bucket])
        if len(bucket) == 1:
            # One tile: its query rows and slots are used in place.
            rows, visible, index, start = bucket[0]
            q = requests[index].query[None, start : start + rows]
            table = np.asarray(requests[index].slots[:visible], dtype=np.int64)
            table = table[None]
        else:
            # Pad the bucket's tiles to one [n, max_rows] query block and
            # one [n, max_visible] slot table (padding slots are slot 0,
            # masked in the body; padding rows stay zero).
            q = np.zeros(
                (len(bucket), int(tile_rows.max()), num_heads, head_dim),
                dtype=dtype,
            )
            table = np.zeros((len(bucket), int(visibles.max())), dtype=np.int64)
            for j, (rows, visible, index, start) in enumerate(bucket):
                q[j, :rows] = requests[index].query[start : start + rows]
                table[j, :visible] = requests[index].slots[:visible]
        out = _attend_tiles(
            q, table, tile_rows, visibles, k_cache, v_cache, scale, group
        )
        for j, (rows, _, index, start) in enumerate(bucket):
            outputs[index][start : start + rows] = out[j, :rows]
    return outputs


def _attend_tiles(
    q: np.ndarray,
    table: np.ndarray,
    tile_rows: np.ndarray,
    visibles: np.ndarray,
    k_cache: np.ndarray,
    v_cache: np.ndarray,
    scale: float,
    group: int,
) -> np.ndarray:
    """The packed body: one bucket of padded tiles in one pass.

    Args:
        q: ``[n, rows, num_heads, head_dim]`` padded query tiles.
        table: ``[n, width]`` padded context slot table.
        tile_rows / visibles: ``[n]`` real query rows and visible context
            length of each tile; its last real row sits at position
            ``visible - 1``.

    Returns:
        ``[n, rows, num_heads, head_dim]`` outputs (padding rows hold
        finite garbage).
    """
    n, rows, num_heads, head_dim = q.shape
    kv_heads = num_heads // group
    width = table.shape[1]
    # ONE gather over the paged cache for the whole bucket.
    k = k_cache[table]  # [n, width, kv_heads, head_dim]
    v = v_cache[table]

    # Grouped-head layout: fold (rows, group) into one matmul row axis so
    # scores/outputs are plain batched BLAS matmuls per (tile, kv head).
    # The scale goes onto the (small) query tensor, not the score tensor.
    q_grouped = (
        q.reshape(n, rows, kv_heads, group, head_dim)
        .transpose(0, 2, 1, 3, 4)
        .reshape(n, kv_heads, rows * group, head_dim)
    ) * scale
    scores = q_grouped @ k.transpose(0, 2, 3, 1)  # [n, kv, rows*g, width]
    scores = scores.reshape(n, kv_heads, rows, group, width)

    # Fused mask: row r of a tile sits at position visible - tile_rows + r
    # and sees context positions up to its own (the causal diagonal),
    # never past the tile's last real row (the segment boundary).  Padding
    # rows are clamped to that boundary too, so they see the whole
    # segment: their softmax stays finite and no NaN can reach a
    # reduction.  One additive 0 / -inf bias in the scores' dtype, one
    # pass over the scores.
    first = visibles - tile_rows
    limit = np.minimum(first[:, None] + np.arange(rows), visibles[:, None] - 1)
    bias = np.where(np.arange(width) <= limit[:, :, None], 0.0, -np.inf)
    bias = bias.astype(scores.dtype, copy=False)
    scores += bias[:, None, :, None, :]

    # Every row sees at least its own position, so the max is finite and
    # the denominator positive.
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores, out=scores)
    denom = weights.sum(axis=-1)
    _check_denominator(denom)

    # The normalisation divides the (much smaller) output tensor rather
    # than the weights.
    out = weights.reshape(n, kv_heads, rows * group, width) @ v.transpose(
        0, 2, 1, 3
    )  # [n, kv, rows*g, head_dim]
    out = out.reshape(n, kv_heads, rows, group, head_dim) / denom[..., None]
    return out.transpose(0, 2, 1, 3, 4).reshape(n, rows, num_heads, head_dim)
