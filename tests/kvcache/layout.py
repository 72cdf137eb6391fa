"""Per-chunk views of a conversation's cache, derived here from its
length and its three boundaries (the manager keeps no record per chunk)."""

from __future__ import annotations

from typing import List, Tuple

from repro.kvcache import ChunkLocation


def spans(cache) -> List[Tuple[int, int]]:
    """Each chunk's token range ``[start, end)``, front to back."""
    size, total = cache.chunk_size, cache.total_tokens
    return [(start, min(start + size, total)) for start in range(0, total, size)]


def locations(cache) -> List[ChunkLocation]:
    """Each chunk's location, front to back: that of the last boundary at
    or below its index, ``DROPPED`` below them all (Figure 5)."""
    starts = list(zip(cache.starts, [
        ChunkLocation.CPU, ChunkLocation.GPU_CPU, ChunkLocation.GPU,
    ]))
    out = []
    for index in range(len(spans(cache))):
        location = ChunkLocation.DROPPED
        for start, where in starts:
            if start <= index:
                location = where
        out.append(location)
    return out
