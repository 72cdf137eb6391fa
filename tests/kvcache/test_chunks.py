"""Tests for chunk bookkeeping and the Figure 5 layout invariant."""

import pytest

from repro.kvcache import Chunk, ChunkLocation, ConversationCache, TailNotOnGpuError


class TestChunk:
    def test_basic_properties(self):
        chunk = Chunk(conv_id=1, index=0, start=0, end=32)
        assert chunk.num_tokens == 32
        assert chunk.location is ChunkLocation.GPU

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            Chunk(conv_id=1, index=0, start=10, end=10)
        with pytest.raises(ValueError):
            Chunk(conv_id=1, index=0, start=-1, end=5)


class TestExtendTo:
    def test_covers_with_full_and_partial_chunks(self):
        cache = ConversationCache(conv_id=7, chunk_size=32)
        created = cache.extend_to(100)
        assert [c.num_tokens for c in created] == [32, 32, 32, 4]
        assert cache.total_tokens == 100
        cache.check_layout()

    def test_partial_tail_completes_first(self):
        cache = ConversationCache(conv_id=7, chunk_size=32)
        cache.extend_to(40)
        cache.extend_to(100)
        sizes = [c.num_tokens for c in cache.chunks]
        assert sizes == [32, 32, 32, 4]
        cache.check_layout()

    def test_extend_is_idempotent_at_same_size(self):
        cache = ConversationCache(conv_id=7, chunk_size=32)
        cache.extend_to(64)
        assert cache.extend_to(64) == []

    def test_shrink_rejected(self):
        cache = ConversationCache(conv_id=7, chunk_size=32)
        cache.extend_to(64)
        with pytest.raises(ValueError):
            cache.extend_to(32)

    def test_cannot_extend_non_gpu_tail(self):
        cache = ConversationCache(conv_id=7, chunk_size=32)
        cache.extend_to(40)
        cache.chunks[-1].location = ChunkLocation.CPU
        cache.chunks[0].location = ChunkLocation.CPU
        with pytest.raises(TailNotOnGpuError):
            cache.extend_to(80)
        assert cache.total_tokens == 40

    def test_grow_tail_bumps_in_place(self):
        cache = ConversationCache(conv_id=7, chunk_size=32)
        cache.extend_to(30)
        tail = cache.chunks[-1]
        assert cache.grow_tail(5) == 2  # only up to the chunk boundary
        assert cache.chunks == [tail] and tail.end == 32
        assert cache.grow_tail(1) == 0  # full: a new chunk is the caller's
        cache.check_growable()

    def test_full_non_gpu_tail_still_grows(self):
        cache = ConversationCache(conv_id=7, chunk_size=32)
        cache.extend_to(32)
        cache.chunks[0].location = ChunkLocation.CPU
        cache.check_growable()
        assert [c.location for c in cache.extend_to(33)] == [ChunkLocation.GPU]


class TestAccounting:
    def make_cache(self):
        cache = ConversationCache(conv_id=1, chunk_size=32)
        cache.extend_to(128)
        cache.chunks[0].location = ChunkLocation.DROPPED
        cache.chunks[1].location = ChunkLocation.CPU
        cache.chunks[2].location = ChunkLocation.GPU_CPU
        return cache

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
        cache = self.make_cache()
        assert cache.frontier(ChunkLocation.CPU).index == 1
        assert cache.frontier(ChunkLocation.GPU).index == 3
        assert cache.frontier(ChunkLocation.GPU, ChunkLocation.GPU_CPU).index == 2

    def test_gpu_segment_bounds(self):
        cache = self.make_cache()
        assert cache.gpu_segment_bounds() == (64, 128)

    def test_gpu_segment_bounds_empty(self):
        cache = ConversationCache(conv_id=1, chunk_size=32)
        cache.extend_to(64)
        for chunk in cache.chunks:
            chunk.location = ChunkLocation.CPU
        assert cache.gpu_segment_bounds() == (64, 64)


class TestLayoutInvariant:
    def test_valid_layout_passes(self):
        cache = ConversationCache(conv_id=1, chunk_size=32)
        cache.extend_to(128)
        cache.chunks[0].location = ChunkLocation.DROPPED
        cache.chunks[1].location = ChunkLocation.CPU
        cache.check_layout()

    def test_gpu_before_cpu_fails(self):
        cache = ConversationCache(conv_id=1, chunk_size=32)
        cache.extend_to(64)
        cache.chunks[1].location = ChunkLocation.CPU  # GPU then CPU: illegal
        with pytest.raises(AssertionError):
            cache.check_layout()

    def test_cpu_before_dropped_fails(self):
        cache = ConversationCache(conv_id=1, chunk_size=32)
        cache.extend_to(96)
        cache.chunks[0].location = ChunkLocation.CPU
        cache.chunks[1].location = ChunkLocation.DROPPED
        with pytest.raises(AssertionError):
            cache.check_layout()

    @pytest.mark.parametrize("location", [
        ChunkLocation.DROPPED,  # the middle chunk, behind a GPU predecessor
        ChunkLocation.GPU,      # the middle chunk, ahead of a CPU successor
    ])
    def test_neighbour_check_sees_both_sides(self, location):
        """The O(1) check after a single move: either broken pair fails
        it, exactly where the full walk would.  A check of the predecessor
        alone passes the second case, of the successor alone the first;
        each mutation, tried in a copy of the tree, fails only here."""
        cache = ConversationCache(conv_id=1, chunk_size=32)
        cache.extend_to(96)
        if location is ChunkLocation.GPU:
            for chunk in cache.chunks:
                chunk.location = ChunkLocation.CPU
        moved = cache.chunks[1]
        moved.location = location
        with pytest.raises(AssertionError):
            cache.check_layout()
        with pytest.raises(AssertionError):
            cache.check_neighbours(moved)

    def test_neighbour_check_passes_legal_moves(self):
        cache = ConversationCache(conv_id=1, chunk_size=32)
        cache.extend_to(96)
        for chunk, location in zip(
            cache.chunks, [ChunkLocation.DROPPED, ChunkLocation.CPU, ChunkLocation.GPU]
        ):
            chunk.location = location
            cache.check_neighbours(chunk)
        cache.check_layout()

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            ConversationCache(conv_id=1, chunk_size=0)


class TestRear:
    def make_cache(self):
        cache = ConversationCache(conv_id=1, chunk_size=32)
        cache.extend_to(128)
        cache.chunks[0].location = ChunkLocation.CPU
        cache.chunks[1].location = ChunkLocation.GPU_CPU
        cache.chunks[2].location = ChunkLocation.GPU_CPU
        return cache

    def test_rear_finds_latest_match(self):
        cache = self.make_cache()
        assert cache.rear(ChunkLocation.GPU_CPU).index == 2
        assert cache.rear(ChunkLocation.CPU).index == 0
        assert cache.rear(ChunkLocation.GPU).index == 3

    def test_rear_none_when_absent(self):
        cache = self.make_cache()
        assert cache.rear(ChunkLocation.DROPPED) is None

    def test_rear_multiple_locations(self):
        cache = self.make_cache()
        assert cache.rear(ChunkLocation.CPU, ChunkLocation.GPU_CPU).index == 2
