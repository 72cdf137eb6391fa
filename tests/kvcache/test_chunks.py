"""Tests for chunk bookkeeping and the Figure 5 layout invariant.

A conversation's cache is its length and three chunk boundaries; these
tests set them directly where they test the arithmetic, and go through the
manager where they test how the boundaries move.
"""

import tracemalloc

import pytest

from repro.core import LruPolicy
from repro.kvcache import (
    ChunkLocation,
    ConversationCache,
    TailNotOnGpuError,
    TieredCacheManager,
)

from tests.kvcache.layout import locations, spans


def make_cache(total, cpu=0, gpu_cpu=0, gpu=0, chunk_size=32):
    cache = ConversationCache(conv_id=7, chunk_size=chunk_size)
    cache.total_tokens = total
    cache.starts = [cpu, gpu_cpu, gpu]
    return cache


def make_manager(gpu=4096, cpu=4096, chunk=32):
    return TieredCacheManager(gpu, cpu, chunk_size=chunk, scorer=LruPolicy())


def grow(mgr, conv_id, tokens, now=0.0):
    """A turn of ``tokens`` new tokens, left pinned."""
    mgr.open(conv_id, now)
    return mgr.commit_restore(mgr.plan_restore(conv_id, tokens), now)


def decode(mgr, conv_id, steps, now):
    """``steps`` decode steps of one pinned conversation."""
    for _ in range(steps):
        mgr.append_tokens([conv_id], now)


class TestChunk:
    def test_basic_properties(self):
        cache = make_cache(40, gpu=0)
        assert cache.num_chunks == 2
        assert cache.span(0) == (0, 32)
        assert cache.span(1) == (32, 40)  # the partial tail
        assert cache.tokens(0, 2) == 40 and cache.tokens(1, 2) == 8
        assert cache.tokens(1, 1) == 0

    def test_invalid_range_rejected(self):
        cache = make_cache(40)
        with pytest.raises(IndexError):
            cache.span(2)
        with pytest.raises(IndexError):
            cache.span(-1)


class TestExtendTo:
    def test_covers_with_full_and_partial_chunks(self):
        mgr = make_manager()
        cache = grow(mgr, 7, 100)
        assert [end - start for start, end in spans(cache)] == [32, 32, 32, 4]
        assert cache.total_tokens == 100
        assert locations(cache) == [ChunkLocation.GPU] * 4
        mgr._audit()

    def test_partial_tail_completes_first(self):
        mgr = make_manager()
        cache = grow(mgr, 7, 40)
        decode(mgr, 7, 60, now=1.0)
        assert [end - start for start, end in spans(cache)] == [32, 32, 32, 4]
        mgr._audit()

    def test_extend_is_idempotent_at_same_size(self):
        mgr = make_manager()
        cache = grow(mgr, 7, 64)
        mgr.append_tokens([], now=1.0)
        assert cache.bounds() == (0, 0, 0, 0, 2)

    def test_shrink_rejected(self):
        mgr = make_manager()
        grow(mgr, 7, 64)
        with pytest.raises(ValueError):
            mgr.plan_restore(7, -32)

    def test_cannot_extend_non_gpu_tail(self):
        cache = make_cache(40, gpu_cpu=2, gpu=2)  # both chunks copied
        with pytest.raises(TailNotOnGpuError):
            cache.check_growable()
        mgr = make_manager()
        grow(mgr, 7, 40)
        mgr.close(7, now=1.0)
        mgr.swap_out(40, now=2.0)
        mgr.open(7, now=3.0)
        with pytest.raises(TailNotOnGpuError):
            mgr.append_tokens([7], now=3.0)
        assert mgr.conversation(7).total_tokens == 40

    def test_grow_tail_bumps_in_place(self):
        mgr = make_manager()
        cache = grow(mgr, 7, 30)
        decode(mgr, 7, 2, now=1.0)  # fills the tail, no new chunk
        assert cache.num_chunks == 1 and cache.span(0) == (0, 32)
        mgr.append_tokens([7], now=1.0)  # the next token starts chunk 1
        assert cache.span(1) == (32, 33)
        assert locations(cache) == [ChunkLocation.GPU] * 2
        mgr._audit()

    def test_full_non_gpu_tail_still_grows(self):
        cache = make_cache(32, cpu=0, gpu_cpu=1, gpu=1)  # chunk 0 on CPU
        cache.check_growable()
        cache.total_tokens += 1
        assert locations(cache) == [ChunkLocation.CPU, ChunkLocation.GPU]


class TestAccounting:
    def make_cache(self):
        # Chunk 0 dropped, 1 on CPU, 2 copied ahead of time, 3 on GPU.
        return make_cache(128, cpu=1, gpu_cpu=2, gpu=3)

    def test_tokens_in(self):
        cache = self.make_cache()
        assert cache.tokens_in(ChunkLocation.GPU) == 32
        assert cache.tokens_in(ChunkLocation.GPU, ChunkLocation.GPU_CPU) == 64
        assert cache.tokens_in(ChunkLocation.DROPPED) == 32

    def test_segments(self):
        cache = self.make_cache()
        seg = cache.segments()
        assert seg[ChunkLocation.DROPPED] == 32
        assert seg[ChunkLocation.CPU] == 32
        assert seg[ChunkLocation.GPU_CPU] == 32
        assert seg[ChunkLocation.GPU] == 32

    def test_frontier(self):
        """Each location's chunks are one run; its first is the one an
        eviction from there takes."""
        cache = self.make_cache()
        assert cache.chunks_in(ChunkLocation.CPU) == range(1, 2)
        assert cache.chunks_in(ChunkLocation.GPU) == range(3, 4)
        assert cache.chunks_in(ChunkLocation.GPU_CPU) == range(2, 3)
        assert cache.starts[1] == cache.chunks_in(ChunkLocation.GPU_CPU).start


class TestLayoutInvariant:
    def test_valid_layout_passes(self):
        mgr = make_manager(chunk=32)
        grow(mgr, 1, 128)
        mgr.close(1, now=1.0)
        mgr.swap_out(64, now=2.0)
        mgr.reclaim(64, now=2.0)
        mgr.drop_from_cpu(32, now=3.0)
        cache = mgr.conversation(1)
        assert locations(cache) == [
            ChunkLocation.DROPPED, ChunkLocation.CPU, ChunkLocation.GPU,
            ChunkLocation.GPU,
        ]
        mgr._audit()

    def test_gpu_before_cpu_fails(self):
        mgr = make_manager()
        cache = grow(mgr, 1, 64)
        cache.starts[1] = 2  # GPU chunks ahead of copied ones: not Figure 5
        with pytest.raises(AssertionError):
            mgr._audit()

    def test_cpu_before_dropped_fails(self):
        mgr = make_manager()
        cache = grow(mgr, 1, 96)
        cache.starts[0] = 1  # a dropped chunk behind CPU ones
        with pytest.raises(AssertionError):
            mgr._audit()

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            ConversationCache(conv_id=1, chunk_size=0)


class TestRear:
    def make_cache(self):
        # Chunk 0 on CPU, 1 and 2 copied ahead of time, 3 on GPU.
        return make_cache(128, gpu_cpu=1, gpu=3)

    def test_rear_finds_latest_match(self):
        cache = self.make_cache()
        assert cache.rear(ChunkLocation.GPU_CPU) == 2
        assert cache.rear(ChunkLocation.CPU) == 0
        assert cache.rear(ChunkLocation.GPU) == 3

    def test_rear_none_when_absent(self):
        cache = self.make_cache()
        assert cache.rear(ChunkLocation.DROPPED) is None

    def test_rear_multiple_locations(self):
        cache = self.make_cache()
        assert cache.rear(ChunkLocation.CPU, ChunkLocation.GPU_CPU) == 2


class TestNoRecordPerChunk:
    @staticmethod
    def retained_bytes(chunks):
        """Bytes a manager still holds after one conversation of
        ``chunks`` chunks grew, was copied out and came back."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mgr = make_manager(gpu=32 * 1024, cpu=32 * 1024)
            grow(mgr, 1, 32 * chunks - 5)
            mgr.close(1, now=1.0)
            mgr.swap_out(32 * chunks // 2, now=2.0)
            mgr.reclaim(32 * chunks // 4, now=2.0)
            mgr.drop_from_cpu(32 * chunks // 8, now=2.0)
            grow(mgr, 1, 7, now=3.0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert mgr.conversation(1).total_tokens == 32 * chunks + 2
        return retained

    def test_retained_bytes_do_not_grow_with_chunks(self):
        """A cache is its length and three boundaries: a 1,000-chunk
        conversation costs what a 10-chunk one does, up to the few bytes
        of its larger ints (168 bytes apart in one run; other tests' leftovers
        move either by a few hundred).  With a record per chunk the two
        were 132,632 bytes apart."""
        self.retained_bytes(10)  # one-time allocations land outside the pair
        small, large = self.retained_bytes(10), self.retained_bytes(1000)
        # 990 more chunks at even one pointer each would be 7,920 bytes.
        assert abs(large - small) < 2048, (small, large)
