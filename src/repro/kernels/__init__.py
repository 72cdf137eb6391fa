"""Functional (numpy) attention kernels.

This subpackage implements, at the algorithm level, every attention kernel
the paper discusses:

- :func:`~repro.kernels.reference.reference_attention` — textbook
  materialised-softmax attention over a *contiguous* KV region; the ground
  truth all other kernels are verified against;
- :func:`~repro.kernels.multi_token.multi_token_attention` — **the paper's
  contribution (§4.4)**: attention between a ragged batch of multi-token
  queries and KV-tokens scattered over non-contiguous pages, with fused
  causal masking, computed with the same online-softmax tiling a fused GPU
  kernel uses;
- :func:`~repro.kernels.single_token.single_token_attention` — vLLM's
  PagedAttention: the one-query-token special case;
- :func:`~repro.kernels.strawmen.copyout_attention` and
  :func:`~repro.kernels.strawmen.multiround_attention` — the two Figure 12
  straw-men (functionally correct, structurally wasteful);
- :mod:`~repro.kernels.subrequests` — the Figure 8(d) splitting of a
  request whose query tokens occupy two disconnected context ranges
  (recomputed dropped prefix + new prompt) into sub-requests that share
  the underlying context;
- :mod:`~repro.kernels.batched` — the **performance layer** for decode:
  :func:`~repro.kernels.batched.batched_single_token_attention` packs a
  whole decode batch into one padded slot-table gather + segment-masked
  batched matmuls;
- :mod:`~repro.kernels.ragged` — the performance layer for everything
  else, and the only prefill/mixed kernel:
  :func:`~repro.kernels.ragged.ragged_multi_token_attention` cuts every
  request's queries into 64-row tiles, buckets the tiles by shape and
  runs one packed pass per bucket (padded slot-table gather, fused
  causal + segment mask, grouped-head GQA matmuls), so its cost follows
  the causally visible query x context area;
- :mod:`~repro.kernels.packed_cache` — the **incremental metadata
  layer**: :class:`~repro.kernels.packed_cache.PackedDecodeCache` keeps
  the decode batch's padded slot table and head-major gathered-KV
  staging buffers alive across iterations (extend / repair / rebuild lifecycle keyed on
  block-table version counters), and
  :func:`~repro.kernels.packed_cache.packed_decode_attention` runs the
  same segment-masked decode math over the staged buffers.

The performance and metadata layers are verified (~1e-6) against the
per-request kernels above, which remain the correctness oracle.

Model and serving code reaches attention kernels through the
:mod:`repro.backends` interface (``tests/test_benchmark_surface.py``);
the Figure 12 experiment imports the kernels it compares directly.
"""

from repro.kernels.request import AttentionRequest
from repro.kernels.reference import reference_attention, resolve_scale
from repro.kernels.multi_token import multi_token_attention
from repro.kernels.single_token import single_token_attention
from repro.kernels.batched import (
    batched_single_token_attention,
    segment_masked_decode,
)
from repro.kernels.packed_cache import (
    DecodeSlotSource,
    PackedBatch,
    PackedDecodeCache,
    packed_decode_attention,
)
from repro.kernels.ragged import ragged_multi_token_attention
from repro.kernels.strawmen import copyout_attention, multiround_attention
from repro.kernels.subrequests import disjoint_query_spans, split_disjoint_query

__all__ = [
    "AttentionRequest",
    "reference_attention",
    "resolve_scale",
    "multi_token_attention",
    "single_token_attention",
    "batched_single_token_attention",
    "segment_masked_decode",
    "DecodeSlotSource",
    "PackedBatch",
    "PackedDecodeCache",
    "packed_decode_attention",
    "ragged_multi_token_attention",
    "copyout_attention",
    "multiround_attention",
    "disjoint_query_spans",
    "split_disjoint_query",
]
