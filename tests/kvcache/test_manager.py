"""Tests for the two-tier cache manager."""

import pytest

from repro.core import LruPolicy, RetentionValuePolicy
from repro.gpu import A100_80GB, CostModel, OfflineProfiler
from repro.kvcache import ChunkLocation, TwoTierCacheManager
from repro.kvcache.manager import CacheCapacityError
from repro.model import OPT_13B


def make_manager(gpu=1024, cpu=4096, chunk=32, scorer=None):
    return TwoTierCacheManager(
        gpu_capacity_tokens=gpu,
        cpu_capacity_tokens=cpu,
        chunk_size=chunk,
        scorer=scorer or LruPolicy(),
    )


def finish_conversation(mgr, conv_id, tokens, now):
    """Open a conversation, give it context, and close it at ``now``."""
    mgr.open(conv_id, now)
    plan = mgr.plan_restore(conv_id, tokens)
    mgr.commit_restore(plan, now)
    mgr.close(conv_id, now)


class TestLifecycle:
    def test_open_creates_and_pins(self):
        mgr = make_manager()
        cache = mgr.open(1, now=10.0)
        assert cache.pinned
        assert cache.last_active == 10.0

    def test_close_unpins_and_stamps_time(self):
        mgr = make_manager()
        mgr.open(1, now=0.0)
        mgr.close(1, now=5.0)
        cache = mgr.conversation(1)
        assert not cache.pinned
        assert cache.last_active == 5.0

    def test_state_persists_across_requests(self):
        """The stateful-serving core property: a second request of the
        same conversation sees all its past KV-tokens as GPU hits."""
        mgr = make_manager()
        finish_conversation(mgr, 1, tokens=100, now=0.0)
        plan = mgr.plan_restore(1, new_tokens=20)
        assert plan.gpu_hit_tokens == 100
        assert plan.swap_in_tokens == 0
        assert plan.recompute_tokens == 0
        assert plan.total_context == 120

    def test_forget_releases_tokens(self):
        mgr = make_manager()
        finish_conversation(mgr, 1, tokens=100, now=0.0)
        assert mgr.forget(1) == 100
        assert mgr.gpu_resident_tokens == 0
        assert mgr.conversation(1) is None
        assert mgr.forget(1) == 0


class TestAccounting:
    def test_fresh_manager_all_free(self):
        mgr = make_manager(gpu=512)
        assert mgr.gpu_free_tokens == 512
        assert mgr.gpu_available_tokens == 512
        assert mgr.cpu_used_tokens == 0

    def test_resident_tracking(self):
        mgr = make_manager(gpu=512)
        finish_conversation(mgr, 1, 100, now=0.0)
        finish_conversation(mgr, 2, 50, now=1.0)
        assert mgr.gpu_resident_tokens == 150
        assert mgr.gpu_free_tokens == 362

    def test_invalid_capacities(self):
        with pytest.raises(ValueError):
            TwoTierCacheManager(0, 100)
        with pytest.raises(ValueError):
            TwoTierCacheManager(100, -1)
        with pytest.raises(ValueError):
            TwoTierCacheManager(100, 100, chunk_size=0)


class TestSwapOutAndReclaim:
    def test_swap_out_copies_without_freeing(self):
        mgr = make_manager(gpu=256)
        finish_conversation(mgr, 1, 128, now=0.0)
        copied = mgr.swap_out(64, now=10.0)
        assert sum(c.num_tokens for c in copied) >= 64
        # Lazy reclamation: slots still occupied, but reclaimable.
        assert mgr.gpu_resident_tokens == 128
        assert mgr.reclaimable_tokens >= 64
        assert mgr.cpu_used_tokens >= 64

    def test_swap_out_takes_leading_chunks_first(self):
        mgr = make_manager(gpu=256)
        finish_conversation(mgr, 1, 128, now=0.0)
        mgr.swap_out(32, now=10.0)
        cache = mgr.conversation(1)
        assert cache.chunks[0].location is ChunkLocation.GPU_CPU
        assert cache.chunks[1].location is ChunkLocation.GPU
        cache.check_layout()

    def test_reclaim_frees_copied_slots(self):
        mgr = make_manager(gpu=256)
        finish_conversation(mgr, 1, 128, now=0.0)
        mgr.swap_out(64, now=10.0)
        freed = mgr.reclaim(64, now=10.0)
        assert freed >= 64
        assert mgr.gpu_free_tokens >= 256 - 128 + 64
        cache = mgr.conversation(1)
        assert cache.chunks[0].location is ChunkLocation.CPU

    def test_pinned_conversations_not_evicted(self):
        mgr = make_manager(gpu=256)
        mgr.open(1, now=0.0)
        plan = mgr.plan_restore(1, 128)
        mgr.commit_restore(plan, now=0.0)  # stays pinned
        assert mgr.swap_out(64, now=10.0) == []
        assert mgr.evictable_gpu_tokens == 0

    def test_gpu_cache_only_variant_drops(self):
        """cpu_capacity_tokens=0 reproduces Pensieve (GPU cache)."""
        mgr = make_manager(gpu=256, cpu=0)
        finish_conversation(mgr, 1, 128, now=0.0)
        copied = mgr.swap_out(64, now=10.0)
        assert copied == []
        cache = mgr.conversation(1)
        assert cache.tokens_in(ChunkLocation.DROPPED) >= 64
        assert mgr.stats["dropped_tokens"] >= 64


class TestCpuPressure:
    def test_drop_from_cpu_under_pressure(self):
        mgr = make_manager(gpu=256, cpu=64)
        finish_conversation(mgr, 1, 128, now=0.0)
        # Fill the CPU tier with genuinely reclaimed chunks...
        mgr.swap_out(64, now=10.0)
        mgr.reclaim(64, now=10.0)
        # ...then further swap-out must drop the oldest CPU copies to
        # make room for the next ones.
        mgr.swap_out(64, now=20.0)
        cache = mgr.conversation(1)
        assert cache.tokens_in(ChunkLocation.DROPPED) > 0
        cache.check_layout()

    def test_swap_out_drops_when_cpu_holds_only_live_copies(self):
        """When the CPU tier is filled entirely by lazily-reclaimable
        copies, swap-out cannot copy further — it falls back to dropping
        leading chunks outright so the GPU space goal is still met."""
        mgr = make_manager(gpu=256, cpu=64)
        finish_conversation(mgr, 1, 128, now=0.0)
        mgr.swap_out(128, now=10.0)
        cache = mgr.conversation(1)
        # Progress goal met: reclaimable copies plus freed (dropped) slots.
        assert mgr.reclaimable_tokens + mgr.gpu_free_tokens >= 128
        assert cache.tokens_in(ChunkLocation.DROPPED) > 0
        cache.check_layout()

    def test_drop_prefers_leading_chunks(self):
        mgr = make_manager(gpu=512, cpu=4096)
        finish_conversation(mgr, 1, 128, now=0.0)
        mgr.swap_out(128, now=10.0)
        mgr.reclaim(128, now=10.0)
        mgr.drop_from_cpu(32, now=20.0)
        cache = mgr.conversation(1)
        assert cache.chunks[0].location is ChunkLocation.DROPPED
        assert cache.chunks[1].location is ChunkLocation.CPU


class TestRestore:
    def make_spread_conversation(self):
        """A conversation whose context spans all four states."""
        mgr = make_manager(gpu=512, cpu=4096)
        finish_conversation(mgr, 1, 128, now=0.0)
        mgr.swap_out(96, now=10.0)        # chunks 0..2 copied
        mgr.reclaim(64, now=10.0)         # chunks 0..1 now CPU-only
        mgr.drop_from_cpu(32, now=10.0)   # chunk 0 dropped
        return mgr

    def test_figure5_decomposition(self):
        mgr = self.make_spread_conversation()
        plan = mgr.plan_restore(1, new_tokens=16)
        assert plan.recompute_tokens == 32   # dropped prefix
        assert plan.swap_in_tokens == 32     # CPU middle
        assert plan.gpu_hit_tokens == 64     # GPU tail (incl. lazy copy)
        assert plan.new_tokens == 16
        assert plan.alloc_tokens == 32 + 32 + 16
        assert plan.prefill_tokens == 48
        assert plan.total_context == 144

    def test_commit_restores_everything_to_gpu(self):
        mgr = self.make_spread_conversation()
        plan = mgr.plan_restore(1, new_tokens=16)
        cache = mgr.commit_restore(plan, now=20.0)
        assert cache.tokens_in(ChunkLocation.GPU) == 144
        assert cache.pinned
        cache.check_layout()

    def test_new_conversation_plan_is_all_new(self):
        mgr = make_manager()
        plan = mgr.plan_restore(99, new_tokens=40)
        assert plan.gpu_hit_tokens == 0
        assert plan.total_context == 40

    def test_commit_reclaims_other_conversations_copies(self):
        mgr = make_manager(gpu=256, cpu=4096)
        finish_conversation(mgr, 1, 224, now=0.0)
        mgr.swap_out(128, now=1.0)  # conversation 1 partly copied out
        plan = mgr.plan_restore(2, new_tokens=100)
        cache = mgr.commit_restore(plan, now=2.0)
        assert cache.total_tokens == 100
        # Conversation 1's copied chunks were reclaimed to make room.
        assert mgr.conversation(1).tokens_in(ChunkLocation.CPU) > 0

    def test_commit_overflow_raises(self):
        mgr = make_manager(gpu=128)
        mgr.open(1, 0.0)
        plan = mgr.plan_restore(1, new_tokens=256)
        with pytest.raises(CacheCapacityError):
            mgr.commit_restore(plan, now=0.0)

    def test_stats_track_hits_at_commit(self):
        mgr = self.make_spread_conversation()
        plan = mgr.plan_restore(1, new_tokens=16)
        # Speculative planning leaves stats untouched...
        assert mgr.stats["gpu_hit_tokens"] == 0
        # ...committing records them.
        mgr.commit_restore(plan, now=20.0)
        assert mgr.stats["gpu_hit_tokens"] == 64
        assert mgr.stats["cpu_hit_tokens"] == 32
        assert mgr.stats["recomputed_tokens"] == 32


class TestAppendTokens:
    def test_decode_growth(self):
        mgr = make_manager()
        mgr.open(1, 0.0)
        mgr.commit_restore(mgr.plan_restore(1, 10), now=0.0)
        mgr.append_tokens(1, 5)
        assert mgr.conversation(1).total_tokens == 15

    def test_growth_reclaims_when_full(self):
        mgr = make_manager(gpu=128, cpu=4096)
        finish_conversation(mgr, 1, 96, now=0.0)
        mgr.swap_out(96, now=1.0)
        mgr.open(2, 2.0)
        mgr.commit_restore(mgr.plan_restore(2, 30), now=2.0)
        mgr.append_tokens(2, 5)  # 96+30+5 > 128: must reclaim from conv 1
        assert mgr.conversation(2).total_tokens == 35
        assert mgr.gpu_resident_tokens <= 128

    def test_growth_overflow_raises(self):
        mgr = make_manager(gpu=64, cpu=0)
        mgr.open(1, 0.0)
        mgr.commit_restore(mgr.plan_restore(1, 60), now=0.0)
        with pytest.raises(CacheCapacityError):
            mgr.append_tokens(1, 10)

    def test_refused_growth_is_atomic(self):
        """Regression: a refused append used to *partially* reclaim other
        conversations before raising, leaving chunks evicted by an
        operation that reported failure.  The capacity check must come
        before any state mutation."""
        mgr = make_manager(gpu=128, cpu=4096)
        finish_conversation(mgr, 1, 96, now=0.0)
        mgr.swap_out(64, now=1.0)  # conv 1: 32 GPU + 64 GPU_CPU (reclaimable)
        mgr.open(2, 2.0)
        mgr.commit_restore(mgr.plan_restore(2, 30), now=2.0)
        before = {
            "gpu_resident": mgr.gpu_resident_tokens,
            "reclaimable": mgr.reclaimable_tokens,
            "conv1_gpu_cpu": mgr.conversation(1).tokens_in(ChunkLocation.GPU_CPU),
            "conv1_gpu": mgr.conversation(1).tokens_in(ChunkLocation.GPU),
        }
        # Deficit 78 exceeds the 64 reclaimable tokens: must refuse.
        with pytest.raises(CacheCapacityError):
            mgr.append_tokens(2, 80)
        assert mgr.gpu_resident_tokens == before["gpu_resident"]
        assert mgr.reclaimable_tokens == before["reclaimable"]
        cache = mgr.conversation(1)
        assert cache.tokens_in(ChunkLocation.GPU_CPU) == before["conv1_gpu_cpu"]
        assert cache.tokens_in(ChunkLocation.GPU) == before["conv1_gpu"]
        assert mgr.conversation(2).total_tokens == 30
        mgr._audit()
        # The same growth succeeds once it fits the reclaimable budget.
        mgr.append_tokens(2, 60)
        assert mgr.conversation(2).total_tokens == 90
        mgr._audit()


class TestEnsureCapacity:
    def test_noop_when_space_available(self):
        mgr = make_manager(gpu=256)
        assert mgr.ensure_capacity(100, now=0.0) == []

    def test_swaps_out_to_make_room(self):
        mgr = make_manager(gpu=256, cpu=4096)
        finish_conversation(mgr, 1, 224, now=0.0)
        copied = mgr.ensure_capacity(128, now=5.0)
        assert sum(c.num_tokens for c in copied) >= 96
        assert mgr.gpu_available_tokens >= 128

    def test_request_larger_than_gpu_rejected(self):
        mgr = make_manager(gpu=128)
        with pytest.raises(CacheCapacityError):
            mgr.ensure_capacity(256, now=0.0)

    def test_all_pinned_cannot_make_room(self):
        mgr = make_manager(gpu=128)
        mgr.open(1, 0.0)
        mgr.commit_restore(mgr.plan_restore(1, 100), now=0.0)  # pinned
        with pytest.raises(CacheCapacityError):
            mgr.ensure_capacity(100, now=0.0)


class TestSuspension:
    def test_release_conversation_gpu(self):
        mgr = make_manager(gpu=256, cpu=4096)
        mgr.open(1, 0.0)
        mgr.commit_restore(mgr.plan_restore(1, 128), now=0.0)
        copied, dropped = mgr.release_conversation_gpu(1, now=1.0)
        assert copied == 128
        assert dropped == 0
        cache = mgr.conversation(1)
        assert not cache.pinned
        assert cache.tokens_in(ChunkLocation.CPU) == 128
        assert mgr.gpu_free_tokens == 256

    def test_release_without_cpu_space_drops(self):
        mgr = make_manager(gpu=256, cpu=0)
        mgr.open(1, 0.0)
        mgr.commit_restore(mgr.plan_restore(1, 128), now=0.0)
        copied, dropped = mgr.release_conversation_gpu(1, now=1.0)
        assert copied == 0
        assert dropped == 128
        assert mgr.conversation(1).tokens_in(ChunkLocation.DROPPED) == 128

    def test_release_with_stored_prefix_drops_from_the_front(self):
        """A conversation that still has a stored prefix, and less CPU
        room than its GPU tokens: the drop must take the *leading* chunk
        (whose slots then hold a GPU chunk), never one in the middle."""
        mgr = make_manager(gpu=256, cpu=64)
        finish_conversation(mgr, 1, 96, now=1.0)
        mgr.swap_out(32, now=2.0)
        mgr.reclaim(32, now=2.0)
        cache = mgr.conversation(1)
        assert [c.location.value for c in cache.chunks] == ["cpu", "gpu", "gpu"]
        assert mgr.cpu_free_tokens == 32
        copied, dropped = mgr.release_conversation_gpu(1, now=3.0)
        cache.check_layout()
        mgr._audit()
        assert [c.location.value for c in cache.chunks] == ["dropped", "cpu", "cpu"]
        assert (copied, dropped) == (64, 0)
        assert mgr.stats["dropped_tokens"] == 32
        assert mgr.gpu_free_tokens == 256 and mgr.cpu_free_tokens == 0


class TestPolicyIntegration:
    def make_retention_manager(self, gpu=512):
        cm = CostModel(OPT_13B, A100_80GB)
        profile = OfflineProfiler.from_cost_model(cm).profile(32, max_context=4096)
        return make_manager(gpu=gpu, scorer=RetentionValuePolicy(profile))

    def test_lru_evicts_oldest_conversation(self):
        mgr = make_manager(gpu=512)
        finish_conversation(mgr, 1, 128, now=0.0)
        finish_conversation(mgr, 2, 128, now=50.0)
        mgr.swap_out(32, now=100.0)
        assert mgr.conversation(1).chunks[0].location is ChunkLocation.GPU_CPU
        assert mgr.conversation(2).chunks[0].location is ChunkLocation.GPU

    def test_retention_value_prefers_cheap_chunks(self):
        """With equal idle times the policy evicts the conversation whose
        frontier chunk is cheapest to recompute (the shorter prefix)."""
        mgr = self.make_retention_manager()
        finish_conversation(mgr, 1, 64, now=0.0)
        finish_conversation(mgr, 2, 256, now=0.0)
        # Conversation 2's chunk 0 attends to 32 tokens, same as conv 1's:
        # same cost, ties broken by conv id.  Evict more to see ordering:
        mgr.swap_out(96, now=100.0)
        c1, c2 = mgr.conversation(1), mgr.conversation(2)
        # Early chunks of both went first; no *late* chunk of conv 2 may
        # leave before an earlier one.
        c1.check_layout()
        c2.check_layout()
        copied = c1.tokens_in(ChunkLocation.GPU_CPU) + c2.tokens_in(
            ChunkLocation.GPU_CPU
        )
        assert copied >= 96

    def test_retention_value_prefers_idle_conversations(self):
        mgr = self.make_retention_manager()
        finish_conversation(mgr, 1, 128, now=0.0)    # idle for 100s
        finish_conversation(mgr, 2, 128, now=99.0)   # idle for 1s
        mgr.swap_out(32, now=100.0)
        assert mgr.conversation(1).chunks[0].location is ChunkLocation.GPU_CPU
        assert mgr.conversation(2).chunks[0].location is ChunkLocation.GPU

    def test_missing_scorer_raises(self):
        mgr = TwoTierCacheManager(256, 256, scorer=None)
        finish_conversation(mgr, 1, 64, now=0.0)
        with pytest.raises(RuntimeError):
            mgr.swap_out(32, now=1.0)


class TestWholeConversationEviction:
    """Granularity ablation (paper Table 3): CachedAttention-style
    whole-conversation eviction vs Pensieve's token chunks."""

    def make(self, whole):
        return TwoTierCacheManager(
            gpu_capacity_tokens=1024,
            cpu_capacity_tokens=4096,
            chunk_size=32,
            scorer=LruPolicy(),
            whole_conversation_eviction=whole,
        )

    def test_chunk_mode_evicts_minimally(self):
        mgr = self.make(whole=False)
        finish_conversation(mgr, 1, 256, now=0.0)
        mgr.swap_out(32, now=10.0)
        assert mgr.reclaimable_tokens == 32
        assert mgr.conversation(1).tokens_in(ChunkLocation.GPU) == 224

    def test_conversation_mode_evicts_everything(self):
        mgr = self.make(whole=True)
        finish_conversation(mgr, 1, 256, now=0.0)
        mgr.swap_out(32, now=10.0)
        # The whole conversation went, despite needing only one chunk.
        assert mgr.reclaimable_tokens == 256
        assert mgr.conversation(1).tokens_in(ChunkLocation.GPU) == 0
        mgr.conversation(1).check_layout()

    def test_conversation_mode_moves_to_next_victim(self):
        mgr = self.make(whole=True)
        finish_conversation(mgr, 1, 128, now=0.0)
        finish_conversation(mgr, 2, 128, now=5.0)
        mgr.swap_out(200, now=10.0)
        # Conversation 1 (older) fully evicted, then conversation 2.
        assert mgr.conversation(1).tokens_in(ChunkLocation.GPU) == 0
        assert mgr.conversation(2).tokens_in(ChunkLocation.GPU) == 0
