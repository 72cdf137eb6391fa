"""The eviction order, checked against a brute-force oracle, and what
finding it costs.

The manager picks victims from its per-location holders and one scored
heap per eviction call.  Neither may change *which* chunk goes next:
before every eviction the victim must be the minimum of
``(scorer(end, cache.last_active, now), conv_id, index)`` over the
unpinned conversations' first chunks in the location — recomputed here at
every single eviction, chunk by chunk, from each conversation's length and
boundaries alone (``tests/kvcache/layout.py``), which is what the manager
itself did before it kept holders and a heap.

Under ``swap_out`` the walk also checks the CPU victims that a full CPU
tier forces, which all come from one CPU stream per call: each must be the
CPU minimum at that moment, a GPU victim may be dropped only if its copy
failed or no CPU chunk is left to drop, and nothing an eviction call does
may move a chunk out of ``DROPPED``.

Count-based tests pin the cost: one eviction call scores each cached
conversation once plus once per victim, not once per victim per
conversation, and a ``swap_out`` that keeps finding the CPU tier full
scans the CPU holders once, not once per GPU victim.

Mutations of ``TieredCacheManager._victims``, each tried in a copy of the
tree against ``tests/kvcache``, ``tests/core`` and ``tests/faults`` under
the derandomized profile:

- successor pushed with the victim's score instead of its own: fails
  ``test_the_walk_reaches_every_eviction_path`` (``INTERLEAVED``; the
  random walks alone did not draw such a case);
- successor never pushed: fails 67 tests, this file's walks among them;
- an entry whose chunk already left the location yielded, without the
  location check: fails ``test_the_walk_reaches_every_eviction_path``
  (``STALE_CPU_ENTRY``: the dropped chunk moves to disk in three tiers,
  and in two the GPU victim behind it is dropped although a CPU chunk
  is left).

And of ``TieredCacheManager._evict``, the one loop that draws from those
streams: pulling the next victim before checking the budget (a victim
pulled past the budget is left in place) fails
``test_swap_out_scans_a_full_cpu_tier_once`` through the shared CPU
stream's "victim not evicted" assertion, among 45 tests.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LruPolicy, RetentionValuePolicy
from repro.faults import FaultPlan, FaultSite
from repro.gpu.profiler import AttentionCostProfile
from repro.kvcache import ChunkLocation, TieredCacheManager
from repro.kvcache.manager import CacheCapacityError

from tests.kvcache.layout import locations, spans

GPU = ChunkLocation.GPU
GPU_CPU = ChunkLocation.GPU_CPU
CPU = ChunkLocation.CPU
DISK = ChunkLocation.DISK
DROPPED = ChunkLocation.DROPPED

CHUNK = 16
#: A steep synthetic cost table, ``Cost(l) = l / 16``: a conversation's
#: n-th chunk costs n, so with idle times of a few seconds the retention
#: values of different conversations interleave chunk by chunk (and tie:
#: 1/1 = 2/2).  Under a real profile the constant term dominates at this
#: scale and the order degenerates to oldest-conversation-first.
PROFILE = AttentionCostProfile(
    chunk_size=CHUNK, context_sizes=(16, 1024), costs=(1.0, 64.0), constant_cost=0.0
)


def scored_frontiers(mgr, loc, now, exclude=(), moved=None):
    """The oracle: every unpinned conversation's earliest chunk in ``loc``
    outside ``exclude``, scored at ``now``, as ``(score, conv_id, chunk
    index)``, from the conversations' lengths and boundaries alone.
    ``moved = (cache, index, location)`` looks at chunk ``index`` of
    ``cache`` as if it were still in ``location``."""
    keys = []
    for cache in mgr.conversations():
        where = locations(cache)
        if moved is not None and moved[0] is cache:
            where[moved[1]] = moved[2]
        if loc not in where or cache.pinned or cache.conv_id in exclude:
            continue
        index = where.index(loc)
        score = mgr.scorer(spans(cache)[index][1], cache.last_active, now)
        keys.append((score, cache.conv_id, index))
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
        #: Conversation whose front-drop through a GPU victim is under way.
        self.collateral = None
        #: ``swap_out_failures`` already matched to a dropped GPU victim.
        self.failures_seen = 0
        #: Victims checked so far, by the location they left.
        self.checked: Counter = Counter()

    # -- the oracle, at every eviction ---------------------------------

    def observe(self, cache, index, old, new) -> None:
        if self.call is None:
            return
        loc, now, exclude = self.call
        key = (cache.conv_id, index)
        assert old is not DROPPED, (self.call, key)
        if self.collateral is not None:
            assert cache.conv_id == self.collateral, (self.collateral, key)
        if old is loc:
            if not (
                self.mgr.whole_conversation_eviction
                and loc is GPU
                and self.picked == cache.conv_id
            ):
                # (Granularity ablation: the rest of the picked conversation
                # follows its frontier out, whatever the other scores are.)
                assert self.min_key(loc, cache, index, old, exclude) == key, (
                    self.call, key
                )
                self.picked = cache.conv_id
                self.checked[loc] += 1
            if loc is GPU and new is DROPPED:
                self.check_dropped(cache)
        elif loc is GPU and old is CPU:
            # Under swap_out a CPU chunk leaves as a victim of the call's
            # CPU stream, which must be the CPU minimum, or ahead of a GPU
            # victim of its own conversation that is being dropped.
            if self.min_key(CPU, cache, index, old) == key:
                self.checked["nested cpu"] += 1
            else:
                self.collateral = cache.conv_id
        elif loc is CPU:
            # Besides its victims, a CPU drop touches only disk chunks: the
            # ones a demotion displaces or a drop takes ahead of it.
            assert old is DISK, (self.call, key, old, new)

    def min_key(self, loc, cache, index, old, exclude=()):
        """``(conv_id, index)`` of the minimum the manager chose from: the
        observer runs after the move, so look at the chunk where it was."""
        moved = (cache, index, old)
        return min(scored_frontiers(self.mgr, loc, self.call[1], exclude, moved))[1:]

    def check_dropped(self, cache) -> None:
        """A GPU victim was dropped: its copy failed, or the CPU tier held
        nothing the call could drop to make room."""
        failures = self.mgr.fault_counters.swap_out_failures
        if failures > self.failures_seen:
            self.failures_seen = failures
        else:
            assert not scored_frontiers(self.mgr, CPU, self.call[1]), self.call
        self.collateral = None

    def evicting(self, loc, now, call, exclude=()):
        self.call, self.picked = (loc, now, exclude), None
        self.failures_seen = self.mgr.fault_counters.swap_out_failures
        try:
            result = call()
        finally:
            self.call = None
        assert self.collateral is None, self.collateral
        return result

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
                # Decode growth reclaims at the caller's clock.
                try:
                    self.evicting(
                        GPU_CPU, now, lambda: mgr.append_tokens(conv, tokens, now),
                        (conv,),
                    )
                except CacheCapacityError:
                    pass
        elif kind == "step":
            # One decode step of every open (pinned) conversation: its
            # whole deficit is one GPU_CPU stream scored at ``now``.
            _, size = op
            batch = sorted(self.open_convs)[:size]
            before = self.checked[GPU_CPU]
            self.evicting(GPU_CPU, now, lambda: mgr.append_decode_step(batch, now))
            self.checked["step"] += self.checked[GPU_CPU] - before
        elif kind == "close":
            _, conv = op
            if conv in self.open_convs:
                mgr.close(conv, now)
                self.open_convs.discard(conv)
        elif kind == "swap_out":
            # ``fail_at``: the call's copy with this ordinal fails (D2H
            # fault), which drops the victim and everything ahead of it.
            _, tokens, fail_at = op
            if fail_at is not None:
                mgr.fault_plan = FaultPlan(schedules={FaultSite.SWAP_OUT: [fail_at]})
            free = mgr.gpu_free_tokens
            try:
                self.evicting(GPU, now, lambda: mgr.swap_out(tokens, now))
            finally:
                mgr.fault_plan = None
            if mgr.reclaimable_tokens + mgr.gpu_free_tokens - free < tokens:
                assert not scored_frontiers(mgr, GPU, now)
        elif kind == "reclaim":
            _, tokens, conv = op
            exclude = () if conv is None else (conv,)
            freed = self.evicting(
                GPU_CPU, now, lambda: mgr.reclaim(tokens, now, exclude=exclude), exclude
            )
            if freed < tokens:
                assert not scored_frontiers(mgr, GPU_CPU, now, exclude)
        elif kind == "drop_cpu":
            _, tokens = op
            freed = self.evicting(CPU, now, lambda: mgr.drop_from_cpu(tokens, now))
            if freed < tokens:
                assert not scored_frontiers(mgr, CPU, now)
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


CONVS = st.integers(min_value=0, max_value=5)
TOKENS = st.integers(min_value=1, max_value=96)
#: Mostly-zero clock steps: conversations share ``last_active`` stamps,
#: so scores tie and the ``(conv_id, index)`` tie-break decides.
TICK = st.sampled_from([0.0, 0.0, 1.0, 2.0])
OPERATION = st.one_of(
    st.tuples(st.just("turn"), CONVS, st.integers(1, 70)),
    st.tuples(st.just("append"), CONVS, st.integers(1, 8)),
    st.tuples(st.just("step"), st.integers(1, 6)),
    st.tuples(st.just("close"), CONVS),
    st.tuples(st.just("swap_out"), TOKENS, st.one_of(st.none(), st.integers(0, 3))),
    st.tuples(st.just("reclaim"), TOKENS, st.one_of(st.none(), CONVS)),
    st.tuples(st.just("drop_cpu"), TOKENS),
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


#: One ``swap_out`` whose CPU stream outlives a front-drop: conv 1 (A)
#: keeps two CPU chunks ahead of two GPU chunks, conv 0 (B) and conv 3 (C)
#: fill the rest of the CPU tier, conv 4 (Y) has four GPU chunks; LRU
#: stamps B 1 < A 2 < C 4 < Y 5.  The last call copies A's first GPU chunk
#: (the stream starts and takes B's), fails the copy of A's second (A's
#: CPU chunks are dropped with it, so the stream's entry for A goes stale)
#: and copies Y's chunks into the room that freed, the last of them after
#: the stream skips A's stale entry and takes C's.
STALE_CPU_ENTRY = [
    (1.0, ("turn", 0, 16)), (0.0, ("close", 0)),
    (1.0, ("turn", 1, 64)), (0.0, ("close", 1)),
    (1.0, ("swap_out", 48, None)), (0.0, ("reclaim", 48, None)),
    (1.0, ("turn", 3, 80)), (0.0, ("suspend", 3)),
    (1.0, ("turn", 4, 64)), (0.0, ("close", 4)),
    (1.0, ("swap_out", 96, 1)),
]


#: One decode step of three conversations on a full GPU: conversations 0,
#: 1 and 2 hold one copied token each, so the step's deficit of three is
#: three victims of one stream, ranked at the step's clock.
DECODE_STEP = [
    step
    for conv in range(3)
    for step in ((1.0, ("turn", conv, 1)), (0.0, ("close", conv)))
] + [
    (1.0, ("swap_out", 3, None)), (0.0, ("turn", 3, 100)),
    (0.0, ("turn", 4, 100)), (0.0, ("turn", 5, 53)), (2.0, ("step", 6)),
]


#: Retention values interleave across conversations: at t = 3, conv 0
#: (three chunks, idle 2 s) scores 0.5, 1.0, 1.5 and conv 1 (one chunk,
#: idle 1.5 s) 0.67, so the second victim is conv 1's chunk, not conv 0's
#: next one.
INTERLEAVED = [
    (1.0, ("turn", 0, 48)), (0.0, ("close", 0)),
    (0.5, ("turn", 1, 16)), (0.0, ("close", 1)),
    (1.5, ("swap_out", 32, None)),
]


def test_the_walk_reaches_every_eviction_path():
    """The oracle only means something if the walk evicts: fixed scripts
    must have it check victims leaving every tier, a successor
    whose own score puts it behind another conversation, a decode step's
    several reclaim victims, and CPU victims
    nested under ``swap_out`` after a front-drop made an entry of its CPU
    stream stale."""
    walk = Walk(disk=96, policy="lru", whole=False)
    for conv in range(4):
        walk.apply(1.0, ("turn", conv, 64))
        walk.apply(0.0, ("close", conv))
    for op in [
        ("swap_out", 96, None), ("reclaim", 96, 0), ("swap_out", 96, None),
        ("reclaim", 96, None), ("drop_cpu", 64), ("drop_disk", 32, 1),
        ("drop_disk", 32, None), ("swap_out", 64, None), ("drop_cpu", 160),
    ]:
        walk.apply(1.0, op)
    assert all(walk.checked[key] for key in (GPU, GPU_CPU, CPU, DISK)), (
        walk.checked
    )
    walk = Walk(disk=0, policy="retention-value", whole=False)
    for tick, op in INTERLEAVED:
        walk.apply(tick, op)
    assert walk.checked[GPU] == 2, walk.checked
    for policy in ("lru", "retention-value"):
        walk = Walk(disk=0, policy=policy, whole=False)
        for tick, op in DECODE_STEP:
            walk.apply(tick, op)
        assert walk.checked["step"] == 3, walk.checked
    for disk in (0, 96):
        walk = Walk(disk=disk, policy="lru", whole=False)
        for tick, op in STALE_CPU_ENTRY:
            walk.apply(tick, op)
        # B's chunk, then C's after the stale entry; A's two dropped CPU
        # chunks are CPU minima when they go, so they count here too.
        assert walk.checked["nested cpu"] == 4, walk.checked
        assert walk.mgr.fault_counters.swap_out_failures == 1
        assert locations(walk.mgr.conversation(4)) == [GPU_CPU] * 4


class CountingScorer:
    """LRU that counts how often the manager asks."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, end, last_active, now) -> float:
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
        mgr.swap_out(total, now=10.0)  # every conversation now holds GPU_CPU
    scorer.calls = 0
    if verb == "swap_out":
        moved = mgr.swap_out(victims * CHUNK, now=10.0)[1]
    else:
        moved = mgr.reclaim(victims * CHUNK, now=10.0)
    assert moved == victims * CHUNK
    assert scorer.calls <= conversations + victims, scorer.calls
    mgr._audit()


def test_swap_out_scans_a_full_cpu_tier_once():
    """N_cpu = 200 conversations fill the CPU tier with one chunk each and
    N_gpu = 100 hold two GPU chunks each; a ``swap_out`` of k = 50 chunks
    must make CPU room for every copy.  One CPU stream for the call keeps
    it to at most N_gpu + N_cpu + k scorer calls; a CPU scan per GPU
    victim costs about k * N_cpu (10,000 here)."""
    n_cpu, n_gpu, victims = 200, 100, 50
    scorer = CountingScorer()
    mgr = TieredCacheManager(
        (n_cpu + 2 * n_gpu) * CHUNK, n_cpu * CHUNK, chunk_size=CHUNK, scorer=scorer
    )
    for conv in range(n_cpu + n_gpu):
        chunks = 1 if conv < n_cpu else 2
        mgr.open(conv, 0.0)
        mgr.commit_restore(mgr.plan_restore(conv, chunks * CHUNK), 0.0)
        mgr.close(conv, float(conv % 7))
        if conv == n_cpu - 1:
            mgr.swap_out(n_cpu * CHUNK, now=1.0)
            mgr.reclaim(n_cpu * CHUNK, now=1.0)
            assert mgr.cpu_free_tokens == 0
    scorer.calls = 0
    copied = mgr.swap_out(victims * CHUNK, now=10.0)
    assert copied == (victims, victims * CHUNK)
    assert mgr.stats["dropped_tokens"] == victims * CHUNK  # one CPU victim each
    assert scorer.calls <= n_gpu + n_cpu + victims, scorer.calls
    mgr._audit()
