"""Property-based tests for the three-tier (GPU/CPU/disk) state machine.

Two layers of random-walk coverage:

- **Manager walks** (hypothesis): arbitrary interleavings of the public
  operations — including disk demotion and disk eviction — must preserve
  the audit identities, all three tier-capacity bounds, the extended
  Figure 5 layout invariant, and token conservation (a tier transition
  may never create or destroy tokens, which is the accounting form of
  "each chunk lives in exactly one tier at a time").
- **Server walks** (seeded): a real :class:`StatefulChatServer` with a
  tiny GPU/CPU and a disk tier serves random multi-turn traffic; after
  every turn the physical stores must mirror the manager's bookkeeping
  exactly (every CPU/GPU_CPU chunk has a CPU-store entry, every DISK
  chunk a disk-store entry, nothing else exists) and every stored chunk
  must still pass its CRC check.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LruPolicy, TieredPlacementPolicy
from repro.core.server import StatefulChatServer
from repro.kvcache import TieredCacheManager
from repro.kvcache.chunks import ChunkLocation
from repro.kvcache.manager import CacheCapacityError
from repro.model.config import tiny_opt_config


class ThreeTierMachine:
    """Applies a scripted operation list to a fresh three-tier manager."""

    def __init__(
        self, gpu: int, cpu: int, disk: int, chunk: int, min_disk_value: float
    ) -> None:
        scorer = LruPolicy()
        self.manager = TieredCacheManager(
            gpu_capacity_tokens=gpu,
            cpu_capacity_tokens=cpu,
            disk_capacity_tokens=disk,
            chunk_size=chunk,
            scorer=scorer,
            placement=TieredPlacementPolicy(scorer, min_disk_value=min_disk_value),
        )
        self.clock = 0.0
        self.open_convs: set = set()

    def now(self) -> float:
        self.clock += 1.0
        return self.clock

    def apply(self, op) -> None:
        kind = op[0]
        mgr = self.manager
        now = self.now()
        try:
            if kind == "open_commit":
                _, conv, tokens = op
                mgr.open(conv, now)
                plan = mgr.plan_restore(conv, tokens)
                try:
                    mgr.ensure_capacity(plan.alloc_tokens, now)
                    mgr.commit_restore(plan, now)
                    self.open_convs.add(conv)
                except CacheCapacityError:
                    mgr.close(conv, now)
            elif kind == "append":
                _, conv, tokens = op
                if conv in self.open_convs:
                    mgr.append_tokens(conv, tokens)
            elif kind == "close":
                _, conv = op
                if conv in self.open_convs:
                    mgr.close(conv, now)
                    self.open_convs.discard(conv)
            elif kind == "swap_out":
                _, tokens = op
                mgr.swap_out(tokens, now)
            elif kind == "reclaim":
                _, tokens = op
                mgr.reclaim(tokens, now)
            elif kind == "drop_cpu":
                _, tokens = op
                mgr.drop_from_cpu(tokens, now)
            elif kind == "drop_disk":
                _, tokens = op
                mgr.drop_from_disk(tokens, now)
            elif kind == "suspend":
                # Any known conversation: an unpinned one may still have
                # a stored prefix ahead of its GPU chunks.
                _, conv = op
                if mgr.conversation(conv) is not None:
                    mgr.release_conversation_gpu(conv, now)
                    self.open_convs.discard(conv)
            elif kind == "forget":
                _, conv = op
                if conv not in self.open_convs:
                    mgr.forget(conv)
        except CacheCapacityError:
            pass  # legal refusals are fine; invariants must still hold

    def check(self) -> None:
        mgr = self.manager
        mgr._audit()
        assert 0 <= mgr.gpu_resident_tokens <= mgr.gpu_capacity_tokens
        assert 0 <= mgr.cpu_used_tokens <= mgr.cpu_capacity_tokens
        assert 0 <= mgr.disk_used_tokens <= mgr.disk_capacity_tokens
        assert mgr.reclaimable_tokens >= 0
        for cache in mgr.conversations():
            cache.check_layout()
            # Conservation within one conversation: every token is in
            # exactly one tier, so the per-location totals partition the
            # conversation's context.
            assert (
                sum(cache.tokens_in(loc) for loc in ChunkLocation)
                == cache.total_tokens
            )


CONV_IDS = st.integers(min_value=0, max_value=5)

OPERATION = st.one_of(
    st.tuples(st.just("open_commit"), CONV_IDS, st.integers(1, 60)),
    st.tuples(st.just("append"), CONV_IDS, st.integers(1, 8)),
    st.tuples(st.just("close"), CONV_IDS),
    st.tuples(st.just("swap_out"), st.integers(1, 128)),
    st.tuples(st.just("reclaim"), st.integers(1, 128)),
    st.tuples(st.just("drop_cpu"), st.integers(1, 128)),
    st.tuples(st.just("drop_disk"), st.integers(1, 128)),
    st.tuples(st.just("suspend"), CONV_IDS),
    st.tuples(st.just("forget"), CONV_IDS),
)


@settings(max_examples=120, deadline=None)
@given(
    ops=st.lists(OPERATION, min_size=1, max_size=60),
    gpu=st.integers(min_value=96, max_value=512),
    cpu=st.sampled_from([0, 64, 256, 2048]),
    disk=st.sampled_from([0, 32, 128, 1024]),
    chunk=st.sampled_from([8, 16, 32]),
    floor=st.sampled_from([0.0, 5.0, 1e9]),
)
def test_random_operation_storm_preserves_invariants(
    ops, gpu, cpu, disk, chunk, floor
):
    machine = ThreeTierMachine(
        gpu=gpu, cpu=cpu, disk=disk, chunk=chunk, min_disk_value=floor
    )
    for op in ops:
        machine.apply(op)
        machine.check()


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(OPERATION, min_size=10, max_size=80))
def test_tokens_are_conserved_across_three_tiers(ops):
    """No tier transition — demotion, disk eviction, promotion included —
    may create or destroy a conversation's tokens."""
    machine = ThreeTierMachine(gpu=384, cpu=256, disk=256, chunk=16, min_disk_value=0.0)
    for op in ops:
        before = {
            c.conv_id: c.total_tokens for c in machine.manager.conversations()
        }
        machine.apply(op)
        after = {
            c.conv_id: c.total_tokens for c in machine.manager.conversations()
        }
        for conv_id, total in after.items():
            if conv_id in before and op[0] not in ("open_commit", "append"):
                assert total == before[conv_id], (op, conv_id)
    machine.check()


@settings(max_examples=40, deadline=None)
@given(requests=st.lists(st.tuples(CONV_IDS, st.integers(1, 40)), min_size=2, max_size=30))
def test_restore_promotes_disk_chunks_fully(requests):
    """A committed restore leaves the conversation entirely GPU-resident
    even when parts of it had been demoted all the way to disk."""
    machine = ThreeTierMachine(gpu=256, cpu=64, disk=1024, chunk=16, min_disk_value=0.0)
    mgr = machine.manager
    expected = {}
    for conv, tokens in requests:
        now = machine.now()
        mgr.open(conv, now)
        plan = mgr.plan_restore(conv, tokens)
        try:
            mgr.ensure_capacity(plan.alloc_tokens, now)
            cache = mgr.commit_restore(plan, now)
        except CacheCapacityError:
            mgr.close(conv, now)
            continue
        expected[conv] = expected.get(conv, 0) + tokens
        assert cache.total_tokens == expected[conv]
        assert cache.tokens_in(ChunkLocation.GPU) == expected[conv]
        assert cache.tokens_in(ChunkLocation.DISK) == 0
        mgr.close(conv, now)
        # Pressure both upper tiers so disk residency actually occurs.
        mgr.swap_out(64, machine.now())
        mgr.reclaim(64, machine.now())
        mgr.drop_from_cpu(32, machine.now())
        machine.check()


# ----------------------------------------------------------------------
# Server-level walks: physical stores must mirror the bookkeeping
# ----------------------------------------------------------------------


def _assert_stores_mirror_manager(server: StatefulChatServer) -> None:
    """Every chunk lives in exactly one physical place, and that place is
    the one the manager's bookkeeping claims; all stored bytes still pass
    their insertion-time CRC."""
    expected_cpu = set()
    expected_disk = set()
    for cache in server.manager.conversations():
        for chunk in cache.chunks:
            key = (cache.conv_id, chunk.index)
            if chunk.location in (ChunkLocation.CPU, ChunkLocation.GPU_CPU):
                expected_cpu.add(key)
            elif chunk.location is ChunkLocation.DISK:
                expected_disk.add(key)
    for conv_id, chunk_index in expected_cpu:
        assert server.cpu_store.contains(conv_id, chunk_index)
        server.cpu_store.get(conv_id, chunk_index)  # re-verifies the CRC
    for conv_id, chunk_index in expected_disk:
        assert server.disk_store.contains(conv_id, chunk_index)
        server.disk_store.get(conv_id, chunk_index)  # re-verifies the CRC
    # Count equality upgrades the subset checks to exact set equality:
    # no orphaned entries survive in either store.
    assert len(server.cpu_store) == len(expected_cpu)
    assert len(server.disk_store) == len(expected_disk)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_server_random_walk_keeps_tiers_coherent(seed):
    config = tiny_opt_config()
    server = StatefulChatServer(
        config,
        gpu_capacity_tokens=192,
        cpu_capacity_tokens=96,
        disk_capacity_tokens=2048,
        chunk_size=16,
        page_size=8,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    for _turn in range(20):
        conv = int(rng.integers(0, 6))
        prompt = [int(t) for t in rng.integers(1, config.vocab_size, size=rng.integers(8, 20))]
        server.chat(conv, prompt_ids=prompt, max_new_tokens=int(rng.integers(2, 9)))
        server.manager._audit()
        _assert_stores_mirror_manager(server)
    assert server.manager.stats["demoted_tokens"] > 0, (
        "walk must actually exercise the disk tier"
    )
    assert server.manager.stats["disk_hit_tokens"] > 0


@pytest.mark.parametrize(
    "floor,expect_demotions", [(6.0, True), (1e9, False)]
)
def test_server_walk_under_retention_floor(floor, expect_demotions):
    """With a placement floor, evictions below it drop instead of
    demoting (an infinite floor reproduces the pure two-tier behaviour) —
    the stores must stay coherent either way."""
    config = tiny_opt_config()
    scorer = LruPolicy()
    server = StatefulChatServer(
        config,
        gpu_capacity_tokens=192,
        cpu_capacity_tokens=96,
        disk_capacity_tokens=2048,
        placement=TieredPlacementPolicy(scorer, min_disk_value=floor),
        chunk_size=16,
        page_size=8,
        scorer=scorer,
        seed=3,
    )
    rng = np.random.default_rng(3)
    for _turn in range(20):
        conv = int(rng.integers(0, 6))
        prompt = [int(t) for t in rng.integers(1, config.vocab_size, size=rng.integers(8, 20))]
        server.chat(conv, prompt_ids=prompt, max_new_tokens=int(rng.integers(2, 9)))
        server.manager._audit()
        _assert_stores_mirror_manager(server)
    stats = server.manager.stats
    assert stats["dropped_tokens"] > 0, "floor should force some drops"
    if expect_demotions:
        assert stats["demoted_tokens"] > 0
    else:
        assert stats["demoted_tokens"] == 0
        assert len(server.disk_store) == 0
