"""Single-token PagedAttention (vLLM's generation-phase kernel).

Computes attention between exactly one query token per request and that
request's paged context — the matrix-*vector* formulation of Figure 9
(left).  No causal mask is needed: a single new token attends to the whole
existing context including itself.

Kept as an independent implementation (not a call into the multi-token
kernel) so tests can check the paper's claim that single-token attention is
the ``q = 1`` special case of multi-token attention by comparing the two.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.kernels.reference import attention_scale, gqa_expand
from repro.kernels.request import AttentionRequest


def single_token_attention(
    requests: Sequence[AttentionRequest],
    k_cache: np.ndarray,
    v_cache: np.ndarray,
) -> List[np.ndarray]:
    """Batched single-token attention over a paged KV cache.

    Every request must carry exactly one query token positioned at the end
    of its context.

    Args:
        requests: the batch (``num_query_tokens == 1`` each).
        k_cache / v_cache: ``[num_slots, kv_heads, head_dim]`` slot arrays.

    Returns:
        One ``[1, num_heads, head_dim]`` output per request.

    Raises:
        ValueError: if any request has more than one query token (that is
            precisely the case this kernel cannot handle, §3.2).
    """
    # The head dimension is fixed by the cache shape, so the scale is
    # computed once for the whole batch (never per request).
    s = attention_scale(k_cache.shape[2])
    outputs: List[np.ndarray] = []
    for request in requests:
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
        slots = np.asarray(request.slots, dtype=np.int64)
        k = gqa_expand(k_cache[slots], request.num_heads)  # [ctx, H, d]
        v = gqa_expand(v_cache[slots], request.num_heads)
        q = request.query[0]  # [H, d]

        # Matrix-vector products: scores[h, c] = q[h] . k[c, h].
        scores = np.einsum("hd,chd->hc", q, k) * s
        scores -= scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=-1, keepdims=True)
        out = np.einsum("hc,chd->hd", weights, v)
        outputs.append(out[None, :, :])
    return outputs
