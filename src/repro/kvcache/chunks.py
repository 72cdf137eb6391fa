"""Chunk-level bookkeeping of cached conversation context.

Pensieve evicts at the granularity of fixed-size chunks of KV-tokens
(32 tokens in the paper, §4.3.1): chunk ``i`` of a conversation covers
tokens ``[i * chunk_size, min((i + 1) * chunk_size, total_tokens))``.
Chunk locations obey the *layout invariant* of Figure 5: along the token
sequence, locations are monotone in the order

    ``DROPPED``  ->  ``CPU``  ->  ``GPU_CPU``  ->  ``GPU``

i.e. the earliest tokens are dropped first, then CPU-resident, and the
latest tokens sit in the GPU.  ``GPU_CPU`` is the lazy-reclaim state of
§4.3.2: the chunk has been *copied* to the CPU ahead of time but its GPU
slots have not been handed to anyone else yet, so a returning
conversation still hits it for free.

Fixed chunks and a monotone layout make a conversation's whole cached
state four numbers: its length and the chunk index where each tier after
``DROPPED`` begins.  :class:`ConversationCache` keeps exactly those, so
every query is arithmetic and a layout that breaks Figure 5 cannot be
written down.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple


class ChunkLocation(enum.Enum):
    """Where a chunk's KV-tokens currently live."""

    GPU = "gpu"          #: resident in GPU pages only.
    GPU_CPU = "gpu_cpu"  #: copied to CPU, GPU slots not yet reclaimed.
    CPU = "cpu"          #: CPU only; must be swapped in before use.
    DROPPED = "dropped"  #: discarded; must be recomputed from raw tokens.

    #: Members are singletons and compare by identity, so identity hashing
    #: agrees with equality; ``Enum.__hash__`` is a Python-level call on
    #: every dict lookup keyed by a location.
    __hash__ = object.__hash__


#: The Figure 5 order, coldest first: ``LAYOUT[k]`` holds the chunks
#: ``[bounds[k], bounds[k + 1])`` of :meth:`ConversationCache.bounds`.
LAYOUT = (
    ChunkLocation.DROPPED, ChunkLocation.CPU, ChunkLocation.GPU_CPU,
    ChunkLocation.GPU,
)


class TailNotOnGpuError(ValueError):
    """A conversation's partial tail chunk has left the GPU, so the
    conversation cannot grow: its next token would have to land inside
    that chunk.  A restore brings the tail back first."""


class ConversationCache:
    """Cached-context state of one conversation.

    ``total_tokens`` is the context length, and ``starts`` the chunk
    indices where each tier after ``DROPPED`` begins: ``[cpu, gpu_cpu,
    gpu]``, ascending.  So chunks ``[0, cpu)`` are dropped, ``[cpu,
    gpu_cpu)`` in CPU, ``[gpu_cpu, gpu)`` copied ahead of time and
    ``[gpu, num_chunks)`` on GPU only.  A
    chunk past every boundary is on the GPU, so growth is ``total_tokens
    += n``.

    Also tracks the conversation's last-active time (the ``T``
    denominator of the retention value) and whether it is *pinned* (a
    request is in flight, so its chunks may not be evicted).  Only the
    :class:`~repro.kvcache.manager.TieredCacheManager` changes any of it.
    """

    __slots__ = (
        "conv_id", "chunk_size", "total_tokens", "starts", "last_active", "pinned",
    )

    def __init__(self, conv_id: int, chunk_size: int, now: float = 0.0) -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.conv_id = conv_id
        self.chunk_size = chunk_size
        self.total_tokens = 0
        self.starts = [0, 0, 0]
        self.last_active = now
        self.pinned = False

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def num_chunks(self) -> int:
        return -(-self.total_tokens // self.chunk_size)

    def bounds(self) -> Tuple[int, ...]:
        """``(0, cpu, gpu_cpu, gpu, num_chunks)``: see :data:`LAYOUT`."""
        return (0, *self.starts, self.num_chunks)

    def span(self, index: int) -> Tuple[int, int]:
        """Token range ``[start, end)`` of chunk ``index``."""
        start = index * self.chunk_size
        if not 0 <= start < self.total_tokens:
            raise IndexError(
                f"conversation {self.conv_id} has no chunk {index} "
                f"({self.total_tokens} tokens)"
            )
        end = start + self.chunk_size
        return start, end if end < self.total_tokens else self.total_tokens

    def tokens(self, lo: int, hi: int) -> int:
        """Tokens in chunks ``[lo, hi)`` (``hi <= num_chunks``)."""
        if hi <= lo:
            return 0
        end = hi * self.chunk_size
        total = self.total_tokens
        return (end if end < total else total) - lo * self.chunk_size

    def chunks_in(self, location: ChunkLocation) -> range:
        """Indices of the chunks in ``location``: one run (Figure 5)."""
        k = LAYOUT.index(location)
        bounds = self.bounds()
        return range(bounds[k], bounds[k + 1])

    def tokens_in(self, *locations: ChunkLocation) -> int:
        """Number of tokens in chunks in any of ``locations``."""
        return sum(
            self.tokens(run.start, run.stop)
            for run in map(self.chunks_in, locations)
        )

    def segments(self) -> Dict[ChunkLocation, int]:
        """Token counts per location (the Figure 5 decomposition)."""
        return {location: self.tokens_in(location) for location in ChunkLocation}

    def rear(self, *locations: ChunkLocation) -> Optional[int]:
        """Index of the latest chunk in any of ``locations``."""
        runs = [run for run in map(self.chunks_in, locations) if run]
        return max(run.stop for run in runs) - 1 if runs else None

    def check_growable(self) -> None:
        """Refuse growth before anything changes.

        Raises:
            TailNotOnGpuError: the tail chunk is partial and no longer on
                GPU, so the next token would land inside a chunk that left.
        """
        total = self.total_tokens
        # Off the GPU: the GPU boundary (the last) lies at or past the tail.
        if total % self.chunk_size and self.starts[-1] * self.chunk_size >= total:
            raise TailNotOnGpuError(
                f"conversation {self.conv_id} cannot grow: its partial tail "
                f"chunk {self.num_chunks - 1} is not on GPU ({self!r})"
            )

    def __repr__(self) -> str:
        return (
            f"ConversationCache(conv={self.conv_id}, total={self.total_tokens}, "
            f"starts={self.starts}, pinned={self.pinned})"
        )
