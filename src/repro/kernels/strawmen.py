"""The two Figure 12 straw-man implementations.

Both produce correct results; they exist so the kernel microbenchmark
(``benchmarks/test_fig12_kernel.py``) can demonstrate *why* they lose:

- **CopyOut+Attention** materialises the scattered context into a freshly
  allocated contiguous buffer and runs the ordinary fused kernel — paying a
  copy proportional to the number of past KV-tokens;
- **Multi-round PagedAttention** feeds the prompt one token at a time
  through the single-token kernel — paying one full context read per query
  token and giving up the query-dimension parallelism.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.kernels.reference import reference_attention
from repro.kernels.request import AttentionRequest
from repro.kernels.single_token import single_token_attention


def copyout_attention(
    requests: Sequence[AttentionRequest],
    k_cache: np.ndarray,
    v_cache: np.ndarray,
    scale: float = 0.0,
) -> List[np.ndarray]:
    """Straw-man 1: copy the paged context out to contiguous memory.

    The explicit ``np.ascontiguousarray`` copies are the point: they model
    the extra memory traffic the paper's Figure 12 charges this approach
    with.
    """
    outputs: List[np.ndarray] = []
    for request in requests:
        slots = np.asarray(request.slots, dtype=np.int64)
        k_contig = np.ascontiguousarray(k_cache[slots])
        v_contig = np.ascontiguousarray(v_cache[slots])
        outputs.append(
            reference_attention(
                request.query,
                k_contig,
                v_contig,
                query_offset=request.query_offset,
                scale=scale,
            )
        )
    return outputs


def multiround_attention(
    requests: Sequence[AttentionRequest],
    k_cache: np.ndarray,
    v_cache: np.ndarray,
    scale: float = 0.0,
) -> List[np.ndarray]:
    """Straw-man 2: one single-token PagedAttention round per query token.

    Round ``i`` submits the ``i``-th query token of every request that has
    one, with that token's visible context prefix — mimicking how one would
    (ab)use vLLM's generation kernel for prefill.  Requires each request's
    query tokens to be the trailing tokens of their visible prefix, which
    holds for both Figure 8(d) sub-request shapes.
    """
    results: List[List[np.ndarray]] = [[] for _ in requests]
    max_q = max((r.num_query_tokens for r in requests), default=0)
    for i in range(max_q):
        round_requests: List[AttentionRequest] = []
        round_owner: List[int] = []
        for idx, request in enumerate(requests):
            if i >= request.num_query_tokens:
                continue
            position = request.query_offset + i
            round_requests.append(
                AttentionRequest(
                    query=request.query[i : i + 1],
                    slots=list(request.slots[: position + 1]),
                    query_offset=position,
                )
            )
            round_owner.append(idx)
        round_out = single_token_attention(
            round_requests, k_cache, v_cache, scale=scale
        )
        for idx, out in zip(round_owner, round_out):
            results[idx].append(out)
    return [
        np.concatenate(parts, axis=0)
        if parts
        else np.zeros((0, r.num_heads, r.head_dim), dtype=k_cache.dtype)
        for parts, r in zip(results, requests)
    ]
