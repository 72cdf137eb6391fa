"""Property-based tests: the cache manager under random operation storms.

Hypothesis drives arbitrary interleavings of the manager's public
operations and checks, after every step, that

- the incremental tier counters match a from-scratch recount (``_audit``);
- every conversation's chunk layout obeys the Figure 5 invariant;
- tier capacities are never exceeded.

These invariants are exactly what the serving engines rely on; a drift in
any of them corrupts simulated memory accounting silently.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LruPolicy
from repro.kvcache import TieredCacheManager
from repro.kvcache.manager import CacheCapacityError


class ManagerMachine:
    """Applies a scripted operation list to a fresh manager."""

    def __init__(self, gpu: int, cpu: int, chunk: int) -> None:
        self.manager = TieredCacheManager(
            gpu_capacity_tokens=gpu,
            cpu_capacity_tokens=cpu,
            chunk_size=chunk,
            scorer=LruPolicy(),
        )
        self.clock = 0.0

    def is_open(self, conv: int) -> bool:
        """Open means pinned, read from the manager (a failed
        ``open_commit`` closes an already-open conversation)."""
        cache = self.manager.conversation(conv)
        return cache is not None and cache.pinned

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
                except CacheCapacityError:
                    mgr.close(conv, now)
            elif kind == "append":
                _, conv, tokens = op
                if self.is_open(conv):
                    mgr.append_tokens(conv, tokens, now)
            elif kind == "close":
                _, conv = op
                if self.is_open(conv):
                    mgr.close(conv, now)
            elif kind == "swap_out":
                _, tokens = op
                mgr.swap_out(tokens, now)
            elif kind == "reclaim":
                _, tokens = op
                mgr.reclaim(tokens, now)
            elif kind == "drop_cpu":
                _, tokens = op
                mgr.drop_from_cpu(tokens, now)
            elif kind == "suspend":
                # Any known conversation: an unpinned one may still have
                # a stored prefix ahead of its GPU chunks.
                _, conv = op
                if mgr.conversation(conv) is not None:
                    mgr.release_conversation_gpu(conv, now)
            elif kind == "forget":
                _, conv = op
                if not self.is_open(conv):
                    mgr.forget(conv)
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


CONV_IDS = st.integers(min_value=0, max_value=5)

OPERATION = st.one_of(
    st.tuples(st.just("open_commit"), CONV_IDS, st.integers(1, 60)),
    st.tuples(st.just("append"), CONV_IDS, st.integers(1, 8)),
    st.tuples(st.just("close"), CONV_IDS),
    st.tuples(st.just("swap_out"), st.integers(1, 128)),
    st.tuples(st.just("reclaim"), st.integers(1, 128)),
    st.tuples(st.just("drop_cpu"), st.integers(1, 128)),
    st.tuples(st.just("suspend"), CONV_IDS),
    st.tuples(st.just("forget"), CONV_IDS),
)


@settings(max_examples=120, deadline=None)
@given(
    ops=st.lists(OPERATION, min_size=1, max_size=60),
    gpu=st.integers(min_value=96, max_value=512),
    cpu=st.sampled_from([0, 64, 256, 2048]),
    chunk=st.sampled_from([8, 16, 32]),
)
def test_random_operation_storm_preserves_invariants(ops, gpu, cpu, chunk):
    machine = ManagerMachine(gpu=gpu, cpu=cpu, chunk=chunk)
    for op in ops:
        machine.apply(op)
        machine.check()


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(OPERATION, min_size=10, max_size=80),
)
def test_tokens_are_conserved_per_conversation(ops):
    """A conversation's total token count never changes except through
    commit (growth by new tokens) and append — no tier transition may
    create or destroy tokens."""
    machine = ManagerMachine(gpu=384, cpu=512, chunk=16)
    totals = {}
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


@settings(max_examples=60, deadline=None)
@given(
    requests=st.lists(
        st.tuples(CONV_IDS, st.integers(1, 40)), min_size=2, max_size=30
    )
)
def test_serving_cycle_always_restores_full_context(requests):
    """For any interleaving of turns, a committed restore leaves the
    conversation entirely GPU-resident with the expected total size."""
    machine = ManagerMachine(gpu=512, cpu=1024, chunk=16)
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
        from repro.kvcache.chunks import ChunkLocation

        assert cache.tokens_in(ChunkLocation.GPU) == expected[conv]
        mgr.close(conv, now)
        mgr.swap_out(64, machine.now())
        machine.check()
