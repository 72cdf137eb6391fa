"""Chaos random walks: the cache manager with an armed fault plan.

Complements ``test_manager_properties.py`` (fault-free hypothesis storms)
with plain seeded random walks whose manager has fault injection armed:
swap-outs degrade to drops mid-walk, and the walk itself interleaves the
recovery entry point (``invalidate_prefix``) with ordinary traffic.
After *every* step the incremental counters must match a from-scratch
recount and every conversation's layout must obey the Figure 5 invariant
— injected failures may cost data locality, never accounting integrity.
"""

from __future__ import annotations

import random

import pytest

from repro.core import LruPolicy
from repro.faults import FaultPlan, FaultSite
from repro.kvcache import ChunkLocation, TieredCacheManager
from repro.kvcache.manager import CacheCapacityError

OPS = (
    "open_commit",
    "append",
    "close",
    "swap_out",
    "reclaim",
    "drop_cpu",
    "suspend",
    "forget",
    "invalidate",
)

WALK_SEEDS = range(50)
STEPS_PER_WALK = 60


class ChaosWalk:
    """One seeded random walk over an armed manager."""

    def __init__(self, seed: int, gpu: int, cpu: int, chunk: int) -> None:
        self.rng = random.Random(seed)
        self.plan = FaultPlan(
            seed=seed,
            rates={FaultSite.SWAP_OUT: 0.25, FaultSite.SWAP_IN: 0.25},
        )
        self.manager = TieredCacheManager(
            gpu_capacity_tokens=gpu,
            cpu_capacity_tokens=cpu,
            chunk_size=chunk,
            scorer=LruPolicy(),
            fault_plan=self.plan,
        )
        self.clock = 0.0
        self.open_convs: set = set()

    def now(self) -> float:
        self.clock += 1.0
        return self.clock

    def step(self) -> None:
        rng = self.rng
        mgr = self.manager
        kind = rng.choice(OPS)
        conv = rng.randrange(6)
        now = self.now()
        try:
            if kind == "open_commit":
                mgr.open(conv, now)
                plan = mgr.plan_restore(conv, rng.randint(1, 60))
                try:
                    mgr.ensure_capacity(plan.alloc_tokens, now)
                    mgr.commit_restore(plan, now)
                    self.open_convs.add(conv)
                except CacheCapacityError:
                    # A failed (re-)open aborts the request: the
                    # conversation is released, like a real turn would.
                    mgr.close(conv, now)
                    self.open_convs.discard(conv)
            elif kind == "append":
                cache = mgr.conversation(conv)
                if conv in self.open_convs and cache is not None and cache.pinned:
                    mgr.append_tokens(conv, rng.randint(1, 8), now)
            elif kind == "close":
                if conv in self.open_convs:
                    mgr.close(conv, now)
                    self.open_convs.discard(conv)
            elif kind == "swap_out":
                mgr.swap_out(rng.randint(1, 128), now)
            elif kind == "reclaim":
                mgr.reclaim(rng.randint(1, 128), now)
            elif kind == "drop_cpu":
                mgr.drop_from_cpu(rng.randint(1, 128), now)
            elif kind == "suspend":
                if conv in self.open_convs:
                    mgr.release_conversation_gpu(conv, now)
                    self.open_convs.discard(conv)
            elif kind == "forget":
                if conv not in self.open_convs:
                    mgr.forget(conv)
            elif kind == "invalidate":
                # The corruption-recovery entry point, fired at random.
                if conv not in self.open_convs:
                    mgr.invalidate_prefix(conv, (ChunkLocation.DISK, ChunkLocation.CPU))
        except CacheCapacityError:
            pass  # legal refusals are fine; invariants must still hold

    def check(self) -> None:
        mgr = self.manager
        mgr._audit()
        assert 0 <= mgr.gpu_resident_tokens <= mgr.gpu_capacity_tokens
        assert 0 <= mgr.cpu_used_tokens <= mgr.cpu_capacity_tokens
        assert mgr.reclaimable_tokens >= 0
        for cache in mgr.conversations():
            cache.check_layout()


@pytest.mark.parametrize("seed", WALK_SEEDS)
def test_chaos_walk_preserves_invariants(seed):
    shapes = [(256, 512, 16), (128, 0, 8), (512, 2048, 32)]
    gpu, cpu, chunk = shapes[seed % len(shapes)]
    walk = ChaosWalk(seed, gpu=gpu, cpu=cpu, chunk=chunk)
    for _ in range(STEPS_PER_WALK):
        walk.step()
        walk.check()


@pytest.mark.parametrize("seed", range(10))
def test_chaos_walk_is_deterministic(seed):
    """Same seed, same fault firings, same end state."""

    def run():
        walk = ChaosWalk(seed, gpu=256, cpu=512, chunk=16)
        for _ in range(STEPS_PER_WALK):
            walk.step()
        return (
            sum(walk.plan.fired.values()),
            dict(walk.manager.stats),
            sorted(
                (c.conv_id, c.total_tokens) for c in walk.manager.conversations()
            ),
        )

    assert run() == run()


def test_swap_out_faults_degrade_to_drops():
    """A fired SWAP_OUT fault must not lose tokens: the chunk moves to
    DROPPED (recoverable by recompute), never to CPU, never vanishes."""
    hit = 0
    for seed in range(20):
        walk = ChaosWalk(seed, gpu=128, cpu=1024, chunk=16)
        for _ in range(STEPS_PER_WALK):
            totals_before = {
                c.conv_id: c.total_tokens for c in walk.manager.conversations()
            }
            walk.step()
            walk.check()
            for cache in walk.manager.conversations():
                if cache.conv_id in totals_before:
                    assert cache.total_tokens >= totals_before[cache.conv_id] or (
                        cache.conv_id not in walk.open_convs
                    )
        hit += walk.manager.fault_counters.swap_out_failures
    assert hit > 0  # the walks actually exercised the degraded path
