"""Directed tests for the disk tier's manager mechanics: demotion,
value-ordered displacement, disk-aware restore planning, and prefix
invalidation — the deterministic counterparts of the property walks."""

import pytest

from repro.core import LruPolicy, TieredPlacementPolicy
from repro.kvcache import TieredCacheManager, TwoTierCacheManager
from repro.kvcache.chunks import ChunkLocation


def make_manager(gpu=128, cpu=64, disk=128, chunk=16, scorer=None, placement=None):
    return TieredCacheManager(
        gpu_capacity_tokens=gpu,
        cpu_capacity_tokens=cpu,
        disk_capacity_tokens=disk,
        chunk_size=chunk,
        scorer=scorer or LruPolicy(),
        placement=placement,
    )


def park(mgr, conv, tokens, now):
    """Serve one turn: commit ``tokens`` of context and unpin."""
    mgr.open(conv, now)
    plan = mgr.plan_restore(conv, tokens)
    mgr.ensure_capacity(plan.alloc_tokens, now)
    mgr.commit_restore(plan, now)
    mgr.close(conv, now)


def push_to_cpu(mgr, tokens, now):
    """Force ``tokens`` of unpinned GPU context down to plain CPU."""
    mgr.swap_out(tokens, now)
    mgr.reclaim(tokens, now)


def squeeze(mgr):
    """Two parked conversations contend for a 32-token CPU tier: conv 0's
    resident chunks must leave the CPU to make room for conv 1."""
    park(mgr, 0, 32, now=1.0)
    push_to_cpu(mgr, 32, now=2.0)
    park(mgr, 1, 32, now=3.0)
    push_to_cpu(mgr, 32, now=4.0)


class TestDemotion:
    def test_cpu_pressure_demotes_to_disk(self):
        mgr = make_manager(gpu=128, cpu=32, disk=128)
        squeeze(mgr)
        assert mgr.disk_used_tokens == 32
        assert mgr.conversation(0).tokens_in(ChunkLocation.DISK) == 32
        assert mgr.stats["demoted_tokens"] == 32
        assert mgr.stats["dropped_tokens"] == 0
        mgr._audit()

    def test_disk_disabled_drops_instead(self):
        mgr = make_manager(gpu=128, cpu=32, disk=0)
        squeeze(mgr)
        assert mgr.disk_used_tokens == 0
        assert mgr.stats["demoted_tokens"] == 0
        assert mgr.stats["dropped_tokens"] == 32
        mgr._audit()

    def test_placement_floor_vetoes_demotion(self):
        scorer = LruPolicy()
        mgr = make_manager(
            gpu=128, cpu=32, disk=128, scorer=scorer,
            placement=TieredPlacementPolicy(scorer, min_disk_value=1e9),
        )
        squeeze(mgr)
        assert mgr.disk_used_tokens == 0
        assert mgr.stats["dropped_tokens"] == 32

    def test_disk_overflow_collapses_unusable_prefix(self):
        mgr = make_manager(gpu=128, cpu=32, disk=16)
        squeeze(mgr)
        # The 16-token disk holds only conv 0's first chunk.  Its second
        # chunk cannot displace the equal-scored sibling, so it drops —
        # and because a restore can only use a *contiguous* stored prefix,
        # the now-useless disk chunk ahead of it is discarded with it
        # (Figure 5: the dropped prefix grows from the front).
        assert mgr.disk_used_tokens == 0
        assert mgr.conversation(0).tokens_in(ChunkLocation.DROPPED) == 32
        assert mgr.stats["demoted_tokens"] == 16
        assert mgr.stats["disk_dropped_tokens"] == 16
        assert mgr.stats["dropped_tokens"] == 32
        mgr._audit()


class TestDisplacement:
    def test_higher_value_chunk_displaces_lower(self):
        # LRU scorer: older last_active = lower score.  Conversation 0
        # parks early (low value), conversation 1 later (high value).
        mgr = make_manager(gpu=128, cpu=32, disk=32)
        park(mgr, 0, 32, now=1.0)
        push_to_cpu(mgr, 32, now=2.0)
        mgr.drop_from_cpu(32, now=3.0)  # conv 0 fills the disk
        assert mgr.disk_used_tokens == 32
        park(mgr, 1, 32, now=10.0)
        push_to_cpu(mgr, 32, now=11.0)
        mgr.drop_from_cpu(32, now=12.0)  # conv 1 wants the disk
        cache0 = mgr.conversation(0)
        cache1 = mgr.conversation(1)
        # Conversation 1 (recent, higher retention) displaced conv 0.
        assert cache1.tokens_in(ChunkLocation.DISK) == 32
        assert cache0.tokens_in(ChunkLocation.DISK) == 0
        assert cache0.tokens_in(ChunkLocation.DROPPED) == 32
        assert mgr.stats["disk_dropped_tokens"] == 32
        mgr._audit()

    def test_lower_value_chunk_cannot_displace(self):
        # Reverse roles: the recent (high-value) conversation owns the
        # disk; the stale conversation's chunks may not displace it and
        # are dropped instead.
        mgr = make_manager(gpu=128, cpu=32, disk=32)
        park(mgr, 1, 32, now=10.0)  # recent, high score
        push_to_cpu(mgr, 32, now=10.5)
        mgr.drop_from_cpu(32, now=11.0)  # conv 1 fills the disk
        assert mgr.conversation(1).tokens_in(ChunkLocation.DISK) == 32
        park(mgr, 0, 32, now=1.0)   # stale, low score
        push_to_cpu(mgr, 32, now=1.5)
        mgr.drop_from_cpu(32, now=2.0)  # conv 0 wants the disk, loses
        assert mgr.conversation(1).tokens_in(ChunkLocation.DISK) == 32
        assert mgr.conversation(0).tokens_in(ChunkLocation.DISK) == 0
        assert mgr.conversation(0).tokens_in(ChunkLocation.DROPPED) == 32
        assert mgr.stats["disk_dropped_tokens"] == 0
        mgr._audit()


class TestRestorePlanning:
    def _park_to_disk(self, mgr, conv=0, tokens=64):
        park(mgr, conv, tokens, now=1.0)
        push_to_cpu(mgr, tokens, now=2.0)
        mgr.drop_from_cpu(tokens, now=3.0)
        return mgr.conversation(conv)

    def test_plan_lists_disk_chunks(self):
        mgr = make_manager(gpu=128, cpu=64, disk=128)
        cache = self._park_to_disk(mgr)
        disk_tokens = cache.tokens_in(ChunkLocation.DISK)
        assert disk_tokens == 64
        plan = mgr.plan_restore(0, new_tokens=8)
        assert plan.disk_read_tokens == disk_tokens
        assert [c.index for c in plan.disk_read_chunks] == [0, 1, 2, 3]
        assert plan.alloc_tokens == disk_tokens + 8
        assert plan.cached_tokens == disk_tokens
        assert plan.prefill_tokens == 8

    def test_commit_promotes_and_counts_hits(self):
        mgr = make_manager(gpu=128, cpu=64, disk=128)
        self._park_to_disk(mgr)
        plan = mgr.plan_restore(0, new_tokens=8)
        mgr.ensure_capacity(plan.alloc_tokens, now=4.0)
        cache = mgr.commit_restore(plan, now=4.0)
        assert cache.tokens_in(ChunkLocation.GPU) == 72
        assert cache.tokens_in(ChunkLocation.DISK) == 0
        assert mgr.disk_used_tokens == 0
        assert mgr.stats["disk_hit_tokens"] == 64
        mgr._audit()

    def _split_across_tiers(self, mgr, conv=0):
        """Leave ``conv`` with a DISK prefix, a CPU middle, and a GPU
        suffix (the extended Figure 5 layout, all tiers populated)."""
        park(mgr, conv, 96, now=1.0)
        push_to_cpu(mgr, 48, now=2.0)
        mgr.drop_from_cpu(32, now=3.0)

    def test_invalidate_disk_prefix_spares_cpu(self):
        mgr = make_manager(gpu=192, cpu=48, disk=128)
        self._split_across_tiers(mgr)
        cache = mgr.conversation(0)
        disk_before = cache.tokens_in(ChunkLocation.DISK)
        cpu_before = cache.tokens_in(ChunkLocation.CPU)
        assert disk_before > 0 and cpu_before > 0
        invalidated = mgr.invalidate_disk_prefix(0)
        assert invalidated == disk_before
        assert cache.tokens_in(ChunkLocation.DISK) == 0
        assert cache.tokens_in(ChunkLocation.CPU) == cpu_before
        cache.check_layout()
        mgr._audit()

    def test_invalidate_cpu_prefix_takes_disk_along(self):
        mgr = make_manager(gpu=192, cpu=48, disk=128)
        self._split_across_tiers(mgr)
        cache = mgr.conversation(0)
        stored = cache.tokens_in(ChunkLocation.DISK) + cache.tokens_in(
            ChunkLocation.CPU
        )
        invalidated = mgr.invalidate_cpu_prefix(0)
        assert invalidated == stored
        assert cache.tokens_in(ChunkLocation.DISK) == 0
        assert cache.tokens_in(ChunkLocation.CPU) == 0
        cache.check_layout()
        mgr._audit()

    @pytest.mark.parametrize(
        "give_up", ["invalidate_disk_prefix", "invalidate_cpu_prefix", "forget"]
    )
    def test_disk_ledger_closes_however_disk_tokens_are_given_up(self, give_up):
        """``demoted == on disk + read back + disk_dropped`` (the identity
        ``_audit`` asserts) after each way of giving disk chunks up
        unread.  Before the front-drop loops became one primitive, both
        ``invalidate_*`` verbs moved ``DISK -> DROPPED`` without bumping
        ``disk_dropped_tokens`` and this read 32 == 0.

        Mutation record for ``_drop_leading_prefix``, over the 540 tests
        of ``tests/{kvcache,faults,core,obs,serving}``: (a) stopping one
        chunk early (``cache.chunks[: upto.index]``) fails 137 and errors
        13, four of them in ``test_eviction_order.py`` — through the
        "victim not evicted" assertion of ``_victims``, added for this:
        without it ``swap_out`` spins instead of failing; (b) skipping the
        ``disk_dropped_tokens`` bump fails 16: the two ``invalidate_*``
        cases here, and the ``_audit`` identity in
        ``test_eviction_order.py``'s three-tier walk, the chaos-disk
        differentials and ``test_three_tier_properties.py``.
        """
        mgr = make_manager(gpu=128, cpu=32, disk=128)
        squeeze(mgr)
        assert mgr.stats["demoted_tokens"] == mgr.disk_used_tokens == 32
        getattr(mgr, give_up)(0)
        assert mgr.disk_used_tokens == 0
        assert mgr.stats["disk_hit_tokens"] == 0
        assert mgr.stats["disk_dropped_tokens"] == mgr.stats["demoted_tokens"] == 32
        mgr._audit()


class TestBackwardCompatibility:
    def test_two_tier_alias(self):
        assert TwoTierCacheManager is TieredCacheManager

    def test_disabled_disk_keeps_two_tier_stats_shape(self):
        mgr = TwoTierCacheManager(
            gpu_capacity_tokens=128, cpu_capacity_tokens=64,
            chunk_size=16, scorer=LruPolicy(),
        )
        park(mgr, 0, 64, now=1.0)
        push_to_cpu(mgr, 64, now=2.0)
        mgr.drop_from_cpu(64, now=3.0)
        assert mgr.disk_capacity_tokens == 0
        assert mgr.disk_used_tokens == 0
        assert mgr.stats["demoted_tokens"] == 0
        assert mgr.stats["disk_hit_tokens"] == 0
        assert mgr.stats["disk_dropped_tokens"] == 0
        mgr._audit()
