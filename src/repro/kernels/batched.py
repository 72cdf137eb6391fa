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

Prefill and mixed batches belong to :mod:`~repro.kernels.ragged`, which
borrows the grouped-head and denominator checks below.

The kernel stays numerically equivalent (~1e-6, in practice ~1e-12) to
the per-request kernels, which remain in-tree as the correctness oracle;
``tests/kernels/test_batched.py`` pins the equivalence.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.kernels.reference import resolve_scale
from repro.kernels.request import AttentionRequest


def _grouped_heads(num_heads: int, kv_heads: int) -> int:
    """GQA group size, with the same validation as ``gqa_expand``."""
    if num_heads % kv_heads != 0:
        raise ValueError(
            f"num_heads ({num_heads}) must be a multiple of kv_heads ({kv_heads})"
        )
    return num_heads // kv_heads


def segment_masked_decode(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    lengths: np.ndarray,
    scale: float,
) -> np.ndarray:
    """The decode-batch math shared by the packed-table and packed-cache
    entry points: segment-masked batched matmuls + stable softmax.

    Args:
        q: ``[n, kv_heads, group, head_dim]`` grouped-head query view.
        k / v: ``[n, C, kv_heads, head_dim]`` gathered context, rows
            padded to the common width ``C``.
        lengths: ``[n]`` valid context length per row.
        scale: resolved score scale.

    Returns:
        ``[n, kv_heads, group, head_dim]`` attention outputs.
    """
    # scores[i, k, g, c] = q[i, k, g] . K[i, c, k] — one batched matmul
    # (BLAS) for every request and head at once.
    scores = q @ k.transpose(0, 2, 3, 1)  # [n, kv, g, C]
    scores *= scale
    max_context = k.shape[1]
    if bool((lengths != max_context).any()):
        # Segment mask: positions beyond a request's boundary never
        # attend.  Uniform-length batches (the common decode case) have
        # no padding and skip the masking pass entirely.
        valid = np.arange(max_context)[None, :] < lengths[:, None]
        scores = np.where(valid[:, None, None, :], scores, -np.inf)

    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores, out=scores)
    weights /= weights.sum(axis=-1, keepdims=True)

    return weights @ v.transpose(0, 2, 1, 3)  # [n, kv, g, head_dim]


def batched_single_token_attention(
    requests: Sequence[AttentionRequest],
    k_cache: np.ndarray,
    v_cache: np.ndarray,
    scale: float = 0.0,
) -> List[np.ndarray]:
    """One packed computation for a whole single-token decode batch.

    Semantically identical to
    :func:`~repro.kernels.single_token.single_token_attention`; the batch
    is packed into a single ``[batch, max_context]`` slot table whose rows
    are the requests' context segments (per-request lengths carry the
    segment boundaries), so the cache gather, the score computation, the
    softmax and the value aggregation each run **once** for the whole
    batch as segment-masked batched matmuls — positions past a request's
    boundary are masked to ``-inf`` before the softmax.  GQA is handled by
    viewing the queries as ``[batch, kv_heads, group, head_dim]`` (a
    zero-copy reshape) rather than materialising broadcast K/V copies.

    Args:
        requests: the decode batch (``num_query_tokens == 1`` each, query
            at the end of its context).
        k_cache / v_cache: ``[num_slots, kv_heads, head_dim]`` slot arrays.
        scale: score scaling, default ``1/sqrt(head_dim)`` resolved once
            for the batch from the cache's head dimension.

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
    scale = resolve_scale(scale, head_dim)
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

    # ONE gather over the paged cache for the whole batch.
    k = k_cache[table]  # [n, C, kv_heads, head_dim]
    v = v_cache[table]

    # Zero-copy GQA: view the queries as [n, kv_heads, group, head_dim] so
    # each KV head meets its group of query heads without np.repeat.
    q = np.stack([r.query[0] for r in requests]).reshape(
        n, kv_heads, group, head_dim
    )

    out = segment_masked_decode(q, k, v, lengths, scale)
    return [out[i].reshape(1, num_heads, head_dim) for i in range(n)]


def _check_denominator(denom: np.ndarray) -> None:
    if np.any(denom == 0.0):
        raise FloatingPointError(
            "a query token attended to an empty context; causal layout "
            "guarantees at least self-attention, so slots/query_offset "
            "are inconsistent"
        )
