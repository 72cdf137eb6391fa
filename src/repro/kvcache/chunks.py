"""Chunk-level bookkeeping of cached conversation context.

Pensieve evicts at the granularity of fixed-size chunks of KV-tokens
(32 tokens in the paper, §4.3.1).  Each conversation's cached context is a
list of :class:`Chunk` records whose locations obey the *layout invariant*
of Figure 5, extended with the optional third (disk) tier: along the token
sequence, locations are monotone in the order

    ``DROPPED``  ->  ``DISK``  ->  ``CPU``  ->  ``GPU_CPU``  ->  ``GPU``

i.e. the earliest tokens are dropped first, then demoted to disk, then
CPU-resident, and the latest tokens sit in the GPU.  ``GPU_CPU`` is the
lazy-reclaim state of §4.3.2: the chunk has been *copied* to the CPU ahead
of time but its GPU slots have not been handed to anyone else yet, so a
returning conversation still hits it for free.  ``DISK`` is the modeled
NVMe tier: colder than CPU (higher restore latency) but warmer than
DROPPED (no recomputation needed).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional


class ChunkLocation(enum.Enum):
    """Where a chunk's KV-tokens currently live."""

    GPU = "gpu"          #: resident in GPU pages only.
    GPU_CPU = "gpu_cpu"  #: copied to CPU, GPU slots not yet reclaimed.
    CPU = "cpu"          #: CPU only; must be swapped in before use.
    DISK = "disk"        #: NVMe tier; must be read back through the host.
    DROPPED = "dropped"  #: discarded; must be recomputed from raw tokens.

    #: Members are singletons and compare by identity, so identity hashing
    #: agrees with equality; ``Enum.__hash__`` is a Python-level call on
    #: every dict lookup keyed by a location.
    __hash__ = object.__hash__


#: Layout order used to validate the Figure 5 invariant (disk-extended).
_LAYOUT_RANK = {
    ChunkLocation.DROPPED: 0,
    ChunkLocation.DISK: 1,
    ChunkLocation.CPU: 2,
    ChunkLocation.GPU_CPU: 3,
    ChunkLocation.GPU: 4,
}
#: Reading an Enum member off its class costs about ten global reads;
#: the per-token growth path compares against this instead.
_GPU = ChunkLocation.GPU


class TailNotOnGpuError(ValueError):
    """A conversation's partial tail chunk has left the GPU, so the
    conversation cannot grow: its next token would have to land inside
    that chunk.  A restore brings the tail back first."""


@dataclass(slots=True)
class Chunk:
    """One eviction unit: a contiguous run of KV-tokens.

    Attributes:
        conv_id: owning conversation.
        index: chunk ordinal within the conversation (0 = earliest).
        start: first token position covered (inclusive).
        end: one past the last token position covered.
        location: current tier.
    """

    conv_id: int
    index: int
    start: int
    end: int
    location: ChunkLocation = ChunkLocation.GPU

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid chunk range [{self.start}, {self.end})")

    @property
    def num_tokens(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"Chunk(conv={self.conv_id}, #{self.index}, "
            f"[{self.start},{self.end}), {self.location.value})"
        )


class ConversationCache:
    """Cached-context state of one conversation.

    Tracks the chunk list, the conversation's last-active time (the ``T``
    denominator of the retention value) and whether the conversation is
    *pinned* (a request is in flight, so its chunks may not be evicted).
    """

    __slots__ = ("conv_id", "chunk_size", "chunks", "last_active", "pinned")

    def __init__(self, conv_id: int, chunk_size: int, now: float = 0.0) -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.conv_id = conv_id
        self.chunk_size = chunk_size
        self.chunks: List[Chunk] = []
        self.last_active = now
        self.pinned = False

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def total_tokens(self) -> int:
        """Total context length covered by the chunk list."""
        return self.chunks[-1].end if self.chunks else 0

    def tokens_in(self, *locations: ChunkLocation) -> int:
        """Number of tokens whose chunks are in any of ``locations``."""
        return sum(c.num_tokens for c in self.chunks if c.location in locations)

    def chunks_in(self, *locations: ChunkLocation) -> List[Chunk]:
        """Chunks in any of ``locations``, in sequence order."""
        return [c for c in self.chunks if c.location in locations]

    def segments(self) -> Dict[ChunkLocation, int]:
        """Token counts per location (the Figure 5 decomposition)."""
        out = {loc: 0 for loc in ChunkLocation}
        for chunk in self.chunks:
            out[chunk.location] += chunk.num_tokens
        return out

    def extend_to(self, total_tokens: int) -> List[Chunk]:
        """Grow the chunk list to cover ``total_tokens`` context tokens.

        New coverage starts where the current list ends; a partial tail
        chunk is first completed, then full chunks are appended, ending
        with a partial tail if needed.  All new chunks are born in GPU.

        Returns the chunks that were created or extended.
        """
        have = self.total_tokens
        if total_tokens < have:
            raise ValueError(
                f"cannot shrink coverage: have {have}, asked for {total_tokens}"
            )
        touched: List[Chunk] = []
        if self.grow_tail(total_tokens - have):
            touched.append(self.chunks[-1])
        pos = self.total_tokens
        while pos < total_tokens:
            end = min(pos + self.chunk_size, total_tokens)
            chunk = Chunk(
                conv_id=self.conv_id,
                index=len(self.chunks),
                start=pos,
                end=end,
                location=ChunkLocation.GPU,
            )
            self.chunks.append(chunk)
            touched.append(chunk)
            pos = end
        return touched

    def grow_tail(self, tokens: int) -> int:
        """Grow a partial tail chunk in place by up to ``tokens`` tokens
        (never past ``chunk_size``); returns how many it took, 0 when the
        tail is full or there is none.  The only code that lengthens an
        existing chunk: a decode step that lands inside the tail is this
        and a counter bump.

        Raises:
            TailNotOnGpuError: see :meth:`check_growable`; nothing changes.
        """
        if tokens <= 0 or not self.chunks:
            return 0
        tail = self.chunks[-1]
        room = self.chunk_size - (tail.end - tail.start)
        if room <= 0:
            return 0
        if tail.location is not _GPU:
            self.check_growable()  # raises: a partial tail off the GPU
        taken = tokens if tokens < room else room
        tail.end += taken
        return taken

    def check_growable(self) -> None:
        """Refuse growth before anything changes.

        Raises:
            TailNotOnGpuError: the tail chunk is partial and no longer on
                GPU, so the next token would land inside a chunk that left.
        """
        if not self.chunks:
            return
        tail = self.chunks[-1]
        if tail.location is not _GPU and tail.end - tail.start < self.chunk_size:
            raise TailNotOnGpuError(
                f"conversation {self.conv_id} cannot grow: its partial tail "
                f"{tail!r} is not on GPU"
            )

    # ------------------------------------------------------------------
    # Invariant checking
    # ------------------------------------------------------------------

    def check_layout(self) -> None:
        """Assert the Figure 5 monotone-layout invariant.

        Raises:
            AssertionError: if any chunk is in a "later" tier than a chunk
                that follows it in the sequence.
        """
        last_rank = 0
        for chunk in self.chunks:
            rank = _LAYOUT_RANK[chunk.location]
            assert rank >= last_rank, (
                f"layout invariant violated at {chunk!r}: "
                f"{[str(c.location.value) for c in self.chunks]}"
            )
            last_rank = rank
        for i, chunk in enumerate(self.chunks):
            assert chunk.index == i, f"chunk index mismatch at {chunk!r}"
            expected_start = self.chunks[i - 1].end if i else 0
            assert chunk.start == expected_start, f"gap before {chunk!r}"

    def check_neighbours(self, chunk: Chunk) -> None:
        """:meth:`check_layout` after a move of ``chunk`` alone, in O(1).

        A move changes one chunk's location and no index or range, so if
        the layout was legal before, only the two pairs the chunk belongs
        to can have broken; checking both is exactly as strong as the full
        walk.

        Raises:
            AssertionError: if ``chunk`` is in a later tier than its
                successor or an earlier one than its predecessor.
        """
        chunks = self.chunks
        i = chunk.index
        rank = _LAYOUT_RANK[chunk.location]
        before = chunks[i - 1] if i else None
        after = chunks[i + 1] if i + 1 < len(chunks) else None
        assert (before is None or _LAYOUT_RANK[before.location] <= rank) and (
            after is None or rank <= _LAYOUT_RANK[after.location]
        ), (
            f"layout invariant violated around {chunk!r}: "
            f"{[str(c.location.value) for c in chunks]}"
        )

    # ------------------------------------------------------------------
    # Tier-transition helpers (called by the manager)
    # ------------------------------------------------------------------

    def frontier(self, *locations: ChunkLocation) -> Optional[Chunk]:
        """Earliest chunk currently in any of ``locations``."""
        for chunk in self.chunks:
            if chunk.location in locations:
                return chunk
        return None

    def rear(self, *locations: ChunkLocation) -> Optional[Chunk]:
        """Latest chunk currently in any of ``locations``."""
        for chunk in reversed(self.chunks):
            if chunk.location in locations:
                return chunk
        return None

    def __repr__(self) -> str:
        seg = self.segments()
        return (
            f"ConversationCache(conv={self.conv_id}, total={self.total_tokens}, "
            f"dropped={seg[ChunkLocation.DROPPED]}, disk={seg[ChunkLocation.DISK]}, "
            f"cpu={seg[ChunkLocation.CPU]}, gpu_cpu={seg[ChunkLocation.GPU_CPU]}, "
            f"gpu={seg[ChunkLocation.GPU]}, pinned={self.pinned})"
        )
