"""The attention-kernel backend (``repro.backends``).

:class:`~repro.model.transformer.PagedTransformer` reaches every
attention kernel *through* its :class:`Backend`, looking each entry
point up on ``self.backend`` at call time, so a caller can substitute a
delegate that records or fakes kernel calls — the serving benchmark's
per-layer tracing does exactly that, and ``tests/test_benchmark_surface.py``
fails if a kernel is reached any other way.

One backend ships: ``paged`` — pool-backed block tables, the
:class:`~repro.kernels.packed_cache.PackedDecodeCache` staging (K
key-transposed, V head-major) and the packed decode kernel.  It is
stateless (per-run state, the decode cache, comes from
:meth:`Backend.create_decode_cache`), so each transformer builds its
own; there is no lookup by name.  ARCHITECTURE.md §15 records the
alternative layouts that were measured against it on the serving
benchmark and removed, and what a replacement would have to show.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.kernels import (
    AttentionRequest,
    batched_single_token_attention,
    multi_token_attention,
    ragged_multi_token_attention,
)
from repro.kernels.packed_cache import (
    PackedBatch,
    PackedDecodeCache,
    packed_decode_attention,
)

__all__ = ["Backend"]


class Backend:
    """Paged block tables + the packed decode cache."""

    name = "paged"

    def create_decode_cache(self) -> PackedDecodeCache:
        """The incremental decode packing cache gathered KV is staged in."""
        return PackedDecodeCache()

    def decode_attention(
        self,
        queries: np.ndarray,
        batch: PackedBatch,
        layer_key: object,
        k_cache: np.ndarray,
        v_cache: np.ndarray,
    ) -> np.ndarray:
        """Single-token decode attention over a packed batch
        (``[n, num_heads, head_dim]`` in and out)."""
        return packed_decode_attention(queries, batch, layer_key, k_cache, v_cache)

    def multi_token_attention(
        self,
        requests: Sequence[AttentionRequest],
        k_cache: np.ndarray,
        v_cache: np.ndarray,
    ) -> List[np.ndarray]:
        """Per-request, multi-token attention: the kernel the
        ``use_fast_paths=False`` oracle runs."""
        return multi_token_attention(requests, k_cache, v_cache)

    def batched_decode_attention(
        self,
        requests: Sequence[AttentionRequest],
        k_cache: np.ndarray,
        v_cache: np.ndarray,
    ) -> List[np.ndarray]:
        """Fused single-token decode for a whole batch without the
        packing cache.  The transformer sends explicit-slot decode
        batches to :meth:`ragged_attention`; this entry point stays
        because the serving benchmark wraps it by name."""
        return batched_single_token_attention(requests, k_cache, v_cache)

    def ragged_attention(
        self,
        requests: Sequence[AttentionRequest],
        k_cache: np.ndarray,
        v_cache: np.ndarray,
    ) -> List[np.ndarray]:
        """Fused mixed prefill+decode attention for a ragged batch."""
        return ragged_multi_token_attention(requests, k_cache, v_cache)
