"""Reference attention over contiguous K/V tensors.

The ground truth for every paged kernel: materialises the full attention
score matrix, applies the causal mask explicitly, and uses a numerically
stable softmax.  Grouped-query attention is supported by broadcasting each
KV head across its group of query heads.
"""

from __future__ import annotations

import numpy as np


def attention_scale(head_dim: int) -> float:
    """The score scale of scaled dot-product attention, ``1/sqrt(head_dim)``.

    Every kernel computes it once per batch from the head dimension of
    the cache it reads, so all of them scale scores by the same float.
    """
    return 1.0 / float(np.sqrt(head_dim))


def gqa_expand(kv: np.ndarray, num_heads: int) -> np.ndarray:
    """Broadcast ``[tokens, kv_heads, dim]`` to ``[tokens, num_heads, dim]``.

    Query head ``h`` uses KV head ``h // group_size`` (GQA grouping [2]).
    """
    kv_heads = kv.shape[1]
    if num_heads % kv_heads != 0:
        raise ValueError(
            f"num_heads ({num_heads}) must be a multiple of kv_heads ({kv_heads})"
        )
    group = num_heads // kv_heads
    if group == 1:
        return kv
    return np.repeat(kv, group, axis=1)


def reference_attention(
    query: np.ndarray,
    key: np.ndarray,
    value: np.ndarray,
    query_offset: int = -1,
) -> np.ndarray:
    """Causal multi-head attention with materialised scores.

    Args:
        query: ``[q, num_heads, head_dim]``.
        key / value: ``[ctx, kv_heads, head_dim]`` in logical order
            (contiguous: this kernel knows nothing about pages).
        query_offset: logical position of the first query token; defaults
            to ``ctx - q`` (queries at the end of the context).

    Returns:
        ``[q, num_heads, head_dim]`` attention outputs.
    """
    if query.ndim != 3 or key.ndim != 3 or value.ndim != 3:
        raise ValueError("query/key/value must be rank-3 tensors")
    q_len, num_heads, head_dim = query.shape
    ctx = key.shape[0]
    if query_offset == -1:
        query_offset = ctx - q_len
    if query_offset < 0 or query_offset + q_len > ctx:
        raise ValueError(
            f"query range [{query_offset}, {query_offset + q_len}) outside "
            f"context of {ctx} tokens"
        )
    scale = attention_scale(head_dim)

    k = gqa_expand(key, num_heads)
    v = gqa_expand(value, num_heads)

    # scores[h, i, j] = q[i, h] . k[j, h]
    scores = np.einsum("qhd,chd->hqc", query, k) * scale

    # Causal mask: query token i (at logical position query_offset + i)
    # may not attend to positions beyond its own.
    positions = np.arange(ctx)[None, :]
    allowed = positions <= (query_offset + np.arange(q_len))[:, None]
    scores = np.where(allowed[None, :, :], scores, -np.inf)

    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)

    return np.einsum("hqc,chd->qhd", weights, v)
