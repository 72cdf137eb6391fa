"""Batched single-token (decode) attention — the performance layer.

The per-request kernels in :mod:`~repro.kernels.single_token` and
:mod:`~repro.kernels.multi_token` mirror the *structure* of the paper's
GPU kernels but serve each request with its own Python-level pass over the
cache.  :func:`batched_single_token_attention` computes the
generation-phase decode batch as **one** computation, the way a fused GPU
kernel treats the batch as one grid launch: every request's context slots
are packed into one padded ``[batch, max_context]`` slot table and
gathered in a single fancy-index, and scores/softmax/weighted-sum run as
segment-masked batched matmuls over the packed axis
(:func:`segment_masked_decode`, shared with the packed-cache entry point).

Prefill, mixed and explicit-slot decode batches belong to
:mod:`~repro.kernels.ragged`, which borrows the grouped-head and
denominator checks below; the transformer's decode path is the packed
cache's.  :func:`batched_single_token_attention` is reached only through
``Backend.batched_decode_attention``.

The kernel stays numerically equivalent (~1e-6, in practice ~1e-12) to
the per-request kernels, which remain in-tree as the correctness oracle;
``tests/kernels/test_batched.py`` pins the equivalence.  The packed-cache
entry point runs the same math over its own staging and, for
grouped-query models, is bit-identical to
:func:`batched_single_token_attention`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.kernels.reference import attention_scale
from repro.kernels.request import AttentionRequest


def _grouped_heads(num_heads: int, kv_heads: int) -> int:
    """GQA group size, with the same validation as ``gqa_expand``."""
    if num_heads % kv_heads != 0:
        raise ValueError(
            f"num_heads ({num_heads}) must be a multiple of kv_heads ({kv_heads})"
        )
    return num_heads // kv_heads


def segment_bias(
    lengths: np.ndarray, width: int, dtype: np.dtype
) -> Optional[np.ndarray]:
    """The additive segment mask of a packed decode batch: ``[n, 1, 1,
    width]`` in ``dtype``, 0 where a column is inside its row's context
    and ``-inf`` past it.  ``None`` when no row is padded (every row is
    ``width`` long), so uniform batches skip the masking pass.

    Adding 0 leaves a finite score's bits unchanged (``-0.0`` becomes
    ``+0.0``, which the softmax cannot tell apart), so this is the same
    mask as ``np.where(valid, scores, -inf)``.
    """
    if not bool((lengths != width).any()):
        return None
    valid = np.arange(width)[None, :] < lengths[:, None]
    bias = np.where(valid, 0.0, -np.inf).astype(dtype, copy=False)
    return bias[:, None, None, :]


def segment_masked_decode(
    q: np.ndarray,
    k_t: np.ndarray,
    v: np.ndarray,
    bias: Optional[np.ndarray],
    scale: float,
) -> np.ndarray:
    """The decode-batch math shared by the packed-table and packed-cache
    entry points: segment-masked batched matmuls + stable softmax.

    Args:
        q: ``[n, kv_heads, group, head_dim]`` grouped-head query view.
        k_t: key-transposed ``[n, kv_heads, head_dim, C]`` gathered
            keys, rows padded to the common width ``C``.  With each
            (row, head) ``[head_dim, C]`` tile at unit stride along ``C``
            the score product is a plain batched GEMM, no transposed
            operand.
        v: ``[n, kv_heads, C, head_dim]`` gathered values, each
            (row, head) ``[C, head_dim]`` tile at unit stride along
            ``head_dim``.
        bias: the batch's :func:`segment_bias` (``None``: no padding).
        scale: the score scale (the entry points pass
            :func:`~repro.kernels.reference.attention_scale`).

    Returns:
        ``[n, kv_heads, group, head_dim]`` attention outputs.
    """
    # scores[i, k, g, c] = q[i, k, g] . K[i, k, c] — one batched matmul
    # (BLAS) for every request and head at once.
    scores = q @ k_t  # [n, kv, g, C]
    scores *= scale
    if bias is not None:
        # Segment mask: positions beyond a request's boundary never
        # attend.
        scores += bias

    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores, out=scores)
    weights /= weights.sum(axis=-1, keepdims=True)

    return weights @ v  # [n, kv, g, head_dim]


def batched_single_token_attention(
    requests: Sequence[AttentionRequest],
    k_cache: np.ndarray,
    v_cache: np.ndarray,
) -> List[np.ndarray]:
    """One packed computation for a whole single-token decode batch.

    Semantically identical to
    :func:`~repro.kernels.single_token.single_token_attention`; the batch
    is packed into a single ``[batch, max_context]`` slot table whose rows
    are the requests' context segments (per-request lengths carry the
    segment boundaries), so the cache gather, the score computation, the
    softmax and the value aggregation each run **once** for the whole
    batch as segment-masked batched matmuls — positions past a request's
    boundary get the additive ``-inf`` of :func:`segment_bias` before the
    softmax.  GQA is handled by viewing the queries as ``[batch,
    kv_heads, group, head_dim]`` (a zero-copy reshape) rather than
    materialising broadcast K/V copies.

    Args:
        requests: the decode batch (``num_query_tokens == 1`` each, query
            at the end of its context).
        k_cache / v_cache: ``[num_slots, kv_heads, head_dim]`` slot arrays.

    Returns:
        One ``[1, num_heads, head_dim]`` output per request.
    """
    if k_cache.shape != v_cache.shape:
        raise ValueError(
            f"K/V cache shape mismatch: {k_cache.shape} vs {v_cache.shape}"
        )
    if not requests:
        return []
    kv_heads, head_dim = k_cache.shape[1], k_cache.shape[2]
    num_heads = requests[0].num_heads
    group = _grouped_heads(num_heads, kv_heads)

    n = len(requests)
    lengths = np.empty(n, dtype=np.int64)
    for i, request in enumerate(requests):
        if request.num_query_tokens != 1:
            raise ValueError(
                "single-token attention requires exactly one query token "
                f"per request, got {request.num_query_tokens}"
            )
        if request.query_offset != request.context_len - 1:
            raise ValueError(
                "single-token attention assumes the query is the newest "
                "context token"
            )
        if request.num_heads != num_heads:
            raise ValueError(
                f"heterogeneous head counts in decode batch: "
                f"{request.num_heads} vs {num_heads}"
            )
        lengths[i] = request.context_len

    # Packed slot table: row i holds request i's context slots, padded
    # (with slot 0 — masked below) to the longest segment.
    max_context = int(lengths.max())
    table = np.zeros((n, max_context), dtype=np.int64)
    for i, request in enumerate(requests):
        table[i, : lengths[i]] = request.slots

    # ONE gather over the paged cache for the whole batch, K viewed
    # key-transposed [n, kv_heads, head_dim, C] and V head-major
    # [n, kv_heads, C, head_dim].
    k_t = k_cache[table].transpose(0, 2, 3, 1)
    v = v_cache[table].transpose(0, 2, 1, 3)

    # Zero-copy GQA: view the queries as [n, kv_heads, group, head_dim] so
    # each KV head meets its group of query heads without np.repeat.
    q = np.stack([r.query[0] for r in requests]).reshape(
        n, kv_heads, group, head_dim
    )

    bias = segment_bias(lengths, max_context, k_cache.dtype)
    out = segment_masked_decode(q, k_t, v, bias, attention_scale(head_dim))
    return [out[i].reshape(1, num_heads, head_dim) for i in range(n)]


def _check_denominator(denom: np.ndarray) -> None:
    if np.any(denom == 0.0):
        raise FloatingPointError(
            "a query token attended to an empty context; causal layout "
            "guarantees at least self-attention, so slots/query_offset "
            "are inconsistent"
        )
