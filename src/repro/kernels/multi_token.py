"""Pensieve's multi-token attention kernel over non-contiguous KV cache.

This is the functional counterpart of the paper's §4.4 CUDA kernel.  Like
the real kernel it must handle, simultaneously:

- a **ragged batch**: every request contributes a different number of
  query tokens (a generation-phase request contributes one, a prefill-phase
  request its whole prompt — the unified batching of §4.2/§4.4.1);
- **non-contiguous context**: each request's KV-tokens live at arbitrary
  physical slots (Figure 6), supplied as per-request slot lists;
- **fused causal masking** for the multi-token case (the red triangle of
  Figure 9), including query chunks positioned *inside* the context rather
  than only at its end — required by the Figure 8(d) sub-request trick;
- **grouped-query attention** (KV-head broadcast).

The implementation mirrors the structure of a fused GPU kernel rather than
calling the reference implementation: the context is processed in fixed
tiles; each tile's K/V rows are *gathered* from the paged cache (the
non-contiguous load the real kernel does from GPU global memory into shared
memory), partial scores are combined with a running online softmax
(max/denominator/accumulator rescaling, after FlashAttention [10]), and
the causal mask is applied per tile without materialising the full score
matrix.  Numerical equivalence to the reference kernel is established in
``tests/kernels/``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.kernels.reference import attention_scale, gqa_expand
from repro.kernels.request import AttentionRequest

#: Context tile width: how many KV-tokens one "thread block" loads at a
#: time.  Deliberately not a multiple of typical page sizes so that tile
#: boundaries and page boundaries disagree in tests.
DEFAULT_TILE = 48


def multi_token_attention(
    requests: Sequence[AttentionRequest],
    k_cache: np.ndarray,
    v_cache: np.ndarray,
    tile: int = DEFAULT_TILE,
) -> List[np.ndarray]:
    """Batched multi-token attention over a paged KV cache.

    Args:
        requests: the batch; each request carries its query tensor, its
            context slot list and its query positioning.
        k_cache / v_cache: ``[num_slots, kv_heads, head_dim]`` slot arrays
            for one layer (physical storage; only the slots referenced by
            the requests are touched).
        tile: context tile width for the online-softmax loop.

    Returns:
        One ``[num_query_tokens, num_heads, head_dim]`` output per request.
    """
    if k_cache.shape != v_cache.shape:
        raise ValueError(
            f"K/V cache shape mismatch: {k_cache.shape} vs {v_cache.shape}"
        )
    if tile <= 0:
        raise ValueError(f"tile must be positive, got {tile}")
    # The head dimension is fixed by the cache shape, so the scale is
    # computed once at the batch level and handed to ``_attend_one``.
    scale = attention_scale(k_cache.shape[2])
    outputs: List[np.ndarray] = []
    for request in requests:
        outputs.append(
            _attend_one(request, k_cache, v_cache, scale=scale, tile=tile)
        )
    return outputs


def _attend_one(
    request: AttentionRequest,
    k_cache: np.ndarray,
    v_cache: np.ndarray,
    scale: float,
    tile: int,
) -> np.ndarray:
    q_len = request.num_query_tokens
    num_heads = request.num_heads
    head_dim = request.head_dim
    if q_len == 0:
        return np.zeros((0, num_heads, head_dim), dtype=k_cache.dtype)

    # A query token never attends beyond its own position, so only the
    # first ``visible`` context tokens matter for this request.
    visible = request.visible_context_len()
    slots = np.asarray(request.slots[:visible], dtype=np.int64)
    query = request.query  # [q, H, d]
    q_positions = request.query_positions()  # [q]

    # Online softmax running state, per (query token, head), in the
    # operands' dtype.
    dtype = np.result_type(query, k_cache)
    running_max = np.full((q_len, num_heads), -np.inf, dtype)
    denom = np.zeros((q_len, num_heads), dtype)
    accum = np.zeros((q_len, num_heads, head_dim), dtype)

    for start in range(0, visible, tile):
        stop = min(start + tile, visible)
        # Non-contiguous gather: this is the paged load the kernel exists
        # to support.  Physical order is arbitrary; logical order is the
        # slice order of ``slots``.
        k_tile = gqa_expand(k_cache[slots[start:stop]], num_heads)
        v_tile = gqa_expand(v_cache[slots[start:stop]], num_heads)

        # scores[i, h, j] for this tile.
        scores = np.einsum("qhd,chd->qhc", query, k_tile) * scale

        # Fused causal mask: position start+j visible to query i iff
        # start+j <= q_positions[i].
        tile_positions = np.arange(start, stop)
        masked = tile_positions[None, :] > q_positions[:, None]  # [q, c]
        scores = np.where(masked[:, None, :], -np.inf, scores)

        # Online softmax update (rescale previous accumulator).
        tile_max = scores.max(axis=-1)  # [q, H]
        new_max = np.maximum(running_max, tile_max)
        # A fully-masked tile contributes nothing; keep state unchanged.
        np.copyto(new_max, running_max, where=np.isneginf(tile_max))
        correction = np.exp(
            np.where(np.isneginf(running_max), 0.0, running_max - new_max)
        )
        weights = np.exp(scores - new_max[:, :, None])
        weights = np.where(np.isneginf(scores), 0.0, weights)

        denom = denom * correction + weights.sum(axis=-1)
        accum = accum * correction[:, :, None] + np.einsum(
            "qhc,chd->qhd", weights, v_tile
        )
        running_max = new_max

    if np.any(denom == 0.0):
        raise FloatingPointError(
            "a query token attended to an empty context; causal layout "
            "guarantees at least self-attention, so slots/query_offset "
            "are inconsistent"
        )
    return accum / denom[:, :, None]
