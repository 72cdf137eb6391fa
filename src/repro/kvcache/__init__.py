"""Paged, tiered KV-cache management.

The Pensieve design stores a conversation's KV-tokens in a hierarchy:

- a **GPU tier** of fixed-size pages allocated from a
  :class:`~repro.kvcache.pages.PagePool`, addressed per-sequence through a
  :class:`~repro.kvcache.pages.BlockTable` (vLLM-style paged memory, so a
  context may occupy non-contiguous physical slots);
- a **CPU tier** holding chunks swapped out of the GPU ahead of time
  (§4.3.2), from which chunks may later be dropped entirely under memory
  pressure, to be recomputed on demand (§4.3.4).

Chunk bookkeeping (:mod:`repro.kvcache.chunks`) tracks, for every
conversation, which 32-token chunks live where: its length and the chunk
index where each tier begins, with no record per chunk (the Figure 5
layout is monotone, so three boundaries say it all); the
:class:`~repro.kvcache.manager.TieredCacheManager` makes placement and
eviction decisions using a pluggable policy (policies themselves live in
:mod:`repro.core.eviction`).  The numpy backing store
(:mod:`repro.kvcache.storage`) is optional: the performance simulation runs
the same bookkeeping without tensors.
"""

from repro.kvcache.pages import BlockTable, PagePool, PagePoolExhausted
from repro.kvcache.chunks import (
    ChunkLocation,
    ConversationCache,
    TailNotOnGpuError,
)
from repro.kvcache.storage import CpuChunkStore, KVStorage
from repro.kvcache.manager import CachePlan, TieredCacheManager

__all__ = [
    "PagePool",
    "PagePoolExhausted",
    "BlockTable",
    "ChunkLocation",
    "ConversationCache",
    "TailNotOnGpuError",
    "KVStorage",
    "CpuChunkStore",
    "TieredCacheManager",
    "CachePlan",
]
