"""The eviction order, checked against a brute-force oracle, and what
finding it costs.

The manager picks victims from a frontier index and one scored heap per
eviction call.  Neither may change *which* chunk goes next: before every
eviction the victim must be the minimum of
``(scorer(cache.frontier(loc), cache.last_active, now), conv_id, index)``
over the unpinned conversations — recomputed here from public state only
(the conversations' chunk lists), at every single eviction, which is what
the manager itself did before it kept an index.

A second, count-based test pins the cost: one eviction call scores each
cached conversation once plus once per victim, not once per victim per
conversation.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LruPolicy, RetentionValuePolicy
from repro.gpu.profiler import AttentionCostProfile
from repro.kvcache import ChunkLocation, TieredCacheManager
from repro.kvcache.manager import CacheCapacityError

GPU = ChunkLocation.GPU
GPU_CPU = ChunkLocation.GPU_CPU
CPU = ChunkLocation.CPU
DISK = ChunkLocation.DISK

CHUNK = 16
#: A steep synthetic cost table, ``Cost(l) = l / 16``: a conversation's
#: n-th chunk costs n, so with idle times of a few seconds the retention
#: values of different conversations interleave chunk by chunk (and tie:
#: 1/1 = 2/2).  Under a real profile the constant term dominates at this
#: scale and the order degenerates to oldest-conversation-first.
PROFILE = AttentionCostProfile(
    chunk_size=CHUNK, context_sizes=(16, 1024), costs=(1.0, 64.0), constant_cost=0.0
)


def scored_frontiers(mgr, loc, now, exclude=None):
    """The oracle: every unpinned conversation's earliest chunk in ``loc``
    as ``(score, conv_id, chunk index)``, from the chunk lists alone."""
    keys = []
    for cache in mgr.conversations():
        chunk = cache.frontier(loc)
        if chunk is None or cache.pinned or cache.conv_id == exclude:
            continue
        score = mgr.scorer(chunk, cache.last_active, now)
        keys.append((score, cache.conv_id, chunk.index))
    return keys


class Walk:
    """Drives a manager through its real verbs and checks, from inside
    the observer, every victim an eviction call picks."""

    def __init__(self, disk: int, policy: str, whole: bool) -> None:
        scorer = LruPolicy() if policy == "lru" else RetentionValuePolicy(PROFILE)
        self.mgr = TieredCacheManager(
            gpu_capacity_tokens=256,
            cpu_capacity_tokens=128,
            disk_capacity_tokens=disk,
            chunk_size=CHUNK,
            scorer=scorer,
            whole_conversation_eviction=whole,
        )
        self.mgr.observer = self.observe
        self.now = 0.0
        self.open_convs: set = set()
        #: ``(location, now, exclude)`` of the eviction call in flight.
        self.call = None
        self.picked = None
        #: Victims checked so far, by the location they left.
        self.checked: Counter = Counter()

    # -- the oracle, at every eviction ---------------------------------

    def observe(self, cache, chunk, old, new) -> None:
        if self.call is None:
            return
        loc, now, exclude = self.call
        key = (cache.conv_id, chunk.index)
        if old is loc:
            if (
                self.mgr.whole_conversation_eviction
                and loc is GPU
                and self.picked == cache.conv_id
            ):
                # Granularity ablation: the rest of the picked conversation
                # follows its frontier out, whatever the other scores are.
                return
            # The observer runs after the move: look at the state the
            # manager chose from.
            chunk.location = old
            try:
                expected = min(scored_frontiers(self.mgr, loc, now, exclude))
            finally:
                chunk.location = new
            assert expected[1:] == key, (self.call, expected, key)
            self.picked = cache.conv_id
            self.checked[loc] += 1
        elif loc is CPU and old is GPU_CPU and new is GPU:
            # drop_from_cpu's revert fallback: only once the CPU victims
            # have run out, and from the conversation reclaimed last.
            chunk.location = old
            try:
                assert not scored_frontiers(self.mgr, CPU, now)
                expected = max(scored_frontiers(self.mgr, GPU_CPU, now))
                assert expected[1] == cache.conv_id, (expected, key)
                assert chunk is cache.rear(GPU_CPU)
            finally:
                chunk.location = new
            self.checked["revert"] += 1

    def evicting(self, loc, now, call, exclude=None):
        self.call, self.picked = (loc, now, exclude), None
        try:
            return call()
        finally:
            self.call = None

    # -- the verbs -----------------------------------------------------

    def apply(self, tick: float, op) -> None:
        self.now += tick
        mgr, now, kind = self.mgr, self.now, op[0]
        if kind == "turn":
            _, conv, tokens = op
            mgr.open(conv, now)
            plan = mgr.plan_restore(conv, tokens)
            try:
                # ensure_capacity moves chunks through swap_out only.
                self.evicting(
                    GPU, now, lambda: mgr.ensure_capacity(plan.alloc_tokens, now)
                )
                mgr.commit_restore(plan, now)
                self.open_convs.add(conv)
            except CacheCapacityError:
                if conv not in self.open_convs:
                    mgr.close(conv, now)
        elif kind == "append":
            _, conv, tokens = op
            if conv in self.open_convs:
                # Decode growth reclaims at the conversation's own stamp.
                stamp = mgr.conversation(conv).last_active
                try:
                    self.evicting(
                        GPU_CPU, stamp, lambda: mgr.append_tokens(conv, tokens), conv
                    )
                except CacheCapacityError:
                    pass
        elif kind == "close":
            _, conv = op
            if conv in self.open_convs:
                mgr.close(conv, now)
                self.open_convs.discard(conv)
        elif kind == "swap_out":
            _, tokens = op
            free = mgr.gpu_free_tokens
            self.evicting(GPU, now, lambda: mgr.swap_out(tokens, now))
            if mgr.reclaimable_tokens + mgr.gpu_free_tokens - free < tokens:
                assert not scored_frontiers(mgr, GPU, now)
        elif kind == "reclaim":
            _, tokens, exclude = op
            freed = self.evicting(
                GPU_CPU, now, lambda: mgr.reclaim(tokens, now, exclude=exclude), exclude
            )
            if freed < tokens:
                assert not scored_frontiers(mgr, GPU_CPU, now, exclude)
        elif kind == "drop_cpu":
            _, tokens, allow_revert = op
            freed = self.evicting(
                CPU, now, lambda: mgr.drop_from_cpu(tokens, now, allow_revert)
            )
            if freed < tokens:
                assert not scored_frontiers(mgr, CPU, now)
                assert not (allow_revert and scored_frontiers(mgr, GPU_CPU, now))
        elif kind == "drop_disk":
            _, tokens, rank = op
            # A ceiling taken from the scores present, so it both splits
            # the candidates and ties with one of them.
            scores = sorted(s for s, _, _ in scored_frontiers(mgr, DISK, now))
            max_score = None
            if scores and rank is not None:
                max_score = scores[rank % len(scores)]
            freed = self.evicting(
                DISK, now, lambda: mgr.drop_from_disk(tokens, now, max_score=max_score)
            )
            if freed < tokens:
                left = scored_frontiers(mgr, DISK, now)
                assert not left or (max_score is not None and min(left)[0] >= max_score)
        elif kind == "suspend":
            _, conv = op
            if mgr.conversation(conv) is not None:
                mgr.release_conversation_gpu(conv, now)
                self.open_convs.discard(conv)
        elif kind == "forget":
            _, conv = op
            if conv not in self.open_convs:
                mgr.forget(conv)
        mgr._audit()
        for cache in mgr.conversations():
            cache.check_layout()


CONVS = st.integers(min_value=0, max_value=5)
TOKENS = st.integers(min_value=1, max_value=96)
#: Mostly-zero clock steps: conversations share ``last_active`` stamps,
#: so scores tie and the ``(conv_id, index)`` tie-break decides.
TICK = st.sampled_from([0.0, 0.0, 1.0, 2.0])
OPERATION = st.one_of(
    st.tuples(st.just("turn"), CONVS, st.integers(1, 70)),
    st.tuples(st.just("append"), CONVS, st.integers(1, 8)),
    st.tuples(st.just("close"), CONVS),
    st.tuples(st.just("swap_out"), TOKENS),
    st.tuples(st.just("reclaim"), TOKENS, st.one_of(st.none(), CONVS)),
    st.tuples(st.just("drop_cpu"), TOKENS, st.booleans()),
    st.tuples(st.just("drop_disk"), TOKENS, st.one_of(st.none(), st.integers(0, 5))),
    st.tuples(st.just("suspend"), CONVS),
    st.tuples(st.just("forget"), CONVS),
)


@pytest.mark.parametrize("whole", [False, True], ids=["chunk", "whole-conversation"])
@pytest.mark.parametrize("policy", ["retention-value", "lru"])
@pytest.mark.parametrize("disk", [0, 96], ids=["two-tier", "three-tier"])
@settings(max_examples=100, deadline=None)
@given(steps=st.lists(st.tuples(TICK, OPERATION), min_size=5, max_size=70))
def test_every_victim_is_the_brute_force_minimum(disk, policy, whole, steps):
    walk = Walk(disk=disk, policy=policy, whole=whole)
    for tick, op in steps:
        walk.apply(tick, op)


def test_the_walk_reaches_every_eviction_path():
    """The oracle only means something if the walk evicts: a fixed script
    must have it check victims leaving every tier, and a revert."""
    walk = Walk(disk=96, policy="lru", whole=False)
    for conv in range(4):
        walk.apply(1.0, ("turn", conv, 64))
        walk.apply(0.0, ("close", conv))
    for op in [
        ("swap_out", 96), ("reclaim", 96, 0), ("swap_out", 96), ("reclaim", 96, None),
        ("drop_cpu", 64, False), ("drop_disk", 32, 1), ("drop_disk", 32, None),
        ("swap_out", 64), ("drop_cpu", 160, True),
    ]:
        walk.apply(1.0, op)
    assert all(walk.checked[key] for key in (GPU, GPU_CPU, CPU, DISK, "revert")), (
        walk.checked
    )


class CountingScorer:
    """LRU that counts how often the manager asks."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, chunk, last_active, now) -> float:
        self.calls += 1
        return last_active


@pytest.mark.parametrize("verb", ["swap_out", "reclaim"])
def test_one_eviction_call_scores_each_conversation_once(verb):
    """N = 200 closed conversations, k = 50 victims, a CPU tier large
    enough that nothing nests: at most N + k scorer calls (one scan, one
    successor per victim), where rescanning per victim costs about k * N."""
    conversations, victims, per_conv = 200, 50, 2
    scorer = CountingScorer()
    total = conversations * per_conv * CHUNK
    mgr = TieredCacheManager(total, total, chunk_size=CHUNK, scorer=scorer)
    for conv in range(conversations):
        mgr.open(conv, 0.0)
        mgr.commit_restore(mgr.plan_restore(conv, per_conv * CHUNK), 0.0)
        mgr.close(conv, float(conv % 5))
    if verb == "reclaim":
        mgr.swap_out(total, now=10.0)  # every conversation now fronts GPU_CPU
    scorer.calls = 0
    if verb == "swap_out":
        moved = sum(c.num_tokens for c in mgr.swap_out(victims * CHUNK, now=10.0))
    else:
        moved = mgr.reclaim(victims * CHUNK, now=10.0)
    assert moved == victims * CHUNK
    assert scorer.calls <= conversations + victims, scorer.calls
    mgr._audit()
