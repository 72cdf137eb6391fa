"""The cache manager's one model-based walk: every victim checked against
a brute-force oracle, every step against a model of the conversations,
in every tier layout, policy, granularity, chunk size and fault arming.

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
failed or no CPU chunk is left to drop, every failed copy costs exactly
one GPU victim (a fired ``SWAP_OUT`` fault degrades to a drop, never to a
lost token), and nothing an eviction call does may move a chunk out of
``DROPPED``.

After every step, whatever the verb, the walk checks the manager against
its model: ``_audit()`` (counters, holders, the Figure 5 order); both
capacity bounds and ``reclaimable_tokens >= 0``; each
conversation's ``total_tokens`` equal to the model's, which only ``turn``,
``append`` and ``step`` move, with the tiers partitioning it; the pinned
conversations equal to the walk's open ones; and, after every committed
restore, the whole context on the GPU.

The hypothesis walk is parametrized over the tier layout (GPU-only or
two-tier), the policy (retention value or LRU) and the
granularity (chunk or whole conversation).  Each example draws its ops
and capacities, and runs its ops under each fault arming (none, a
``fail_at`` schedule per ``swap_out``, and a drawn seed and rate of
random ``SWAP_OUT`` faults), each at a different chunk size (8, 16 and
32).  Seeded walks (ops drawn by
``random.Random(seed)`` through the same ``Walk.apply``) arm a random
``SWAP_OUT`` rate in a cell drawn from the seed; the first ten are
replayed: the same seed must end in the same ``stats``, the same fired
faults and the same layouts.  CI's chaos matrix sets ``CHAOS_EXTRA_SEED``, which adds
50 such walks seeded from it to the 50 fixed ones.

Count-based tests pin the cost: one eviction call scores each cached
conversation once plus once per victim, not once per victim per
conversation, and a ``swap_out`` that keeps finding the CPU tier full
scans the CPU holders once, not once per GPU victim.

Mutations of ``TieredCacheManager``, each tried in a copy of the tree
against ``tests/kvcache`` (Hypothesis shrinking off in the copy, so each
failure is the first failing example), counted after growth became
one ``append_tokens(conv_ids, now)`` and while the walk still had a
third, disk, tier layout (so the counts include its cells):

- ``_victims`` pushes a successor with the victim's score instead of its
  own: fails 7, the walk in four cells, two seeded walks and
  ``test_the_walk_reaches_every_eviction_path``;
- ``_victims`` never pushes a successor: fails 75, 38 of them here;
- ``_victims`` yields every entry, without checking that its chunk is
  still first in the location: fails only
  ``test_the_walk_reaches_every_eviction_path`` (``STALE_CPU_ENTRY``:
  the GPU victim behind the stale entry is dropped although a CPU chunk
  is left);
- ``_evict`` pulls the next victim before checking the budget (a victim
  pulled past the budget is left in place): fails 14, among them
  ``test_swap_out_scans_a_full_cpu_tier_once`` through the shared CPU
  stream's "victim not evicted" assertion and the walk in one cell;
- ``_move`` leaves ``_reclaimable`` alone when a ``GPU_CPU`` chunk is
  dropped: fails 26, the walk in six cells and 12 seeded walks (two
  also replayed) among them.
"""

from __future__ import annotations

import os
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import LruPolicy, RetentionValuePolicy
from repro.faults import FaultPlan, FaultSite
from repro.gpu.profiler import AttentionCostProfile
from repro.kvcache import ChunkLocation, TieredCacheManager
from repro.kvcache.manager import CacheCapacityError

from tests.kvcache.layout import locations, spans

GPU = ChunkLocation.GPU
GPU_CPU = ChunkLocation.GPU_CPU
CPU = ChunkLocation.CPU
DROPPED = ChunkLocation.DROPPED

CHUNK = 16


def steep_profile(chunk: int) -> AttentionCostProfile:
    """A steep synthetic cost table, ``Cost(l) = l / chunk``: a
    conversation's n-th chunk costs n, so with idle times of a few seconds
    the retention values of different conversations interleave chunk by
    chunk (and tie: 1/1 = 2/2).  Under a real profile the constant term
    dominates at this scale and the order degenerates to
    oldest-conversation-first."""
    return AttentionCostProfile(
        chunk_size=chunk, context_sizes=(chunk, 1024), costs=(1.0, 1024 / chunk),
        constant_cost=0.0,
    )


def scored_frontiers(mgr, loc, now, moved=None):
    """The oracle: every unpinned conversation's earliest chunk in ``loc``,
    scored at ``now``, as ``(score, conv_id, chunk index)``, from the
    conversations' lengths and boundaries alone.
    ``moved = (cache, index, location)`` looks at chunk ``index`` of
    ``cache`` as if it were still in ``location``."""
    keys = []
    for cache in mgr.conversations():
        where = locations(cache)
        if moved is not None and moved[0] is cache:
            where[moved[1]] = moved[2]
        if loc not in where or cache.pinned:
            continue
        index = where.index(loc)
        score = mgr.scorer(spans(cache)[index][1], cache.last_active, now)
        keys.append((score, cache.conv_id, index))
    return keys


class Walk:
    """Drives a manager through its real verbs and checks, from inside
    the observer, every victim an eviction call picks, and after every
    verb the manager against the walk's model.

    ``arming`` is ``None``, ``"scheduled"`` (each ``swap_out`` op's
    ``fail_at`` fails that copy) or ``(seed, rate)``: a ``SWAP_OUT`` rate
    armed for the whole walk."""

    def __init__(
        self, gpu=256, cpu=128, chunk=CHUNK, policy="lru", whole=False,
        arming=None,
    ) -> None:
        scorer = (
            LruPolicy() if policy == "lru" else RetentionValuePolicy(steep_profile(chunk))
        )
        self.scheduled = arming == "scheduled"
        self.plan = None
        if arming is not None and not self.scheduled:
            seed, rate = arming
            self.plan = FaultPlan(seed=seed, rates={FaultSite.SWAP_OUT: rate})
        self.mgr = TieredCacheManager(
            gpu_capacity_tokens=gpu,
            cpu_capacity_tokens=cpu,
            chunk_size=chunk,
            scorer=scorer,
            whole_conversation_eviction=whole,
            fault_plan=self.plan,
        )
        self.mgr.observer = self.observe
        self.now = 0.0
        self.open_convs: set = set()
        #: The model: each conversation's context length.
        self.totals: dict = {}
        #: ``(location, now)`` of the eviction call in flight.
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
        loc, now = self.call
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
                assert self.min_key(loc, cache, index, old) == key, (
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
        else:
            # Besides its victims, only a GPU victim's front-drop moves
            # chunks: its conversation's copies ahead of it.
            assert loc is GPU, (self.call, key, old, new)

    def min_key(self, loc, cache, index, old):
        """``(conv_id, index)`` of the minimum the manager chose from: the
        observer runs after the move, so look at the chunk where it was."""
        moved = (cache, index, old)
        return min(scored_frontiers(self.mgr, loc, self.call[1], moved))[1:]

    def check_dropped(self, cache) -> None:
        """A GPU victim was dropped: its copy failed (one fault, one
        victim), or the CPU tier held nothing the call could drop to make
        room."""
        failures = self.mgr.fault_counters.swap_out_failures
        if failures > self.failures_seen:
            assert failures == self.failures_seen + 1, (failures, self.failures_seen)
            self.failures_seen = failures
        else:
            assert not scored_frontiers(self.mgr, CPU, self.call[1]), self.call
        self.collateral = None

    def evicting(self, loc, now, call):
        self.call, self.picked = (loc, now), None
        self.failures_seen = self.mgr.fault_counters.swap_out_failures
        try:
            return call()
        finally:
            self.call = None
            assert self.collateral is None, self.collateral
            # Each failed copy dropped its GPU victim (``check_dropped``).
            assert self.failures_seen == self.mgr.fault_counters.swap_out_failures

    # -- the verbs -----------------------------------------------------

    def apply(self, tick: float, op) -> None:
        self.now += tick
        mgr, now, kind = self.mgr, self.now, op[0]
        if kind == "turn":
            # ``abort``: a failed restore ends the request, which closes
            # the conversation even if it was open.
            _, conv, tokens, *abort = op
            mgr.open(conv, now)
            self.totals.setdefault(conv, 0)
            plan = mgr.plan_restore(conv, tokens)
            try:
                # ensure_capacity moves chunks through swap_out only.
                self.evicting(
                    GPU, now, lambda: mgr.ensure_capacity(plan.alloc_tokens, now)
                )
                cache = mgr.commit_restore(plan, now)
            except CacheCapacityError:
                if any(abort) or conv not in self.open_convs:
                    mgr.close(conv, now)
                    self.open_convs.discard(conv)
            else:
                self.open_convs.add(conv)
                self.totals[conv] += tokens
                assert cache.tokens_in(GPU) == cache.total_tokens
        elif kind == "append":
            # ``tokens`` decode steps of one open conversation, until one
            # does not fit; growth reclaims at the caller's clock.
            _, conv, tokens = op
            for _ in range(tokens if conv in self.open_convs else 0):
                try:
                    self.evicting(GPU_CPU, now, lambda: mgr.append_tokens([conv], now))
                except CacheCapacityError:
                    break
                self.totals[conv] += 1
        elif kind == "step":
            # One decode step of open (pinned) conversations: its whole
            # deficit is one GPU_CPU stream scored at ``now``, and a step
            # that does not fit whole changes nothing.
            _, size = op
            batch = sorted(self.open_convs)[:size]
            before = self.checked[GPU_CPU]
            layouts = self.fingerprint()
            try:
                self.evicting(GPU_CPU, now, lambda: mgr.append_tokens(batch, now))
            except CacheCapacityError:
                assert self.fingerprint() == layouts, batch
            else:
                for conv in batch:
                    self.totals[conv] += 1
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
            if self.scheduled and fail_at is not None:
                mgr.fault_plan = FaultPlan(schedules={FaultSite.SWAP_OUT: [fail_at]})
            free = mgr.gpu_free_tokens
            try:
                self.evicting(GPU, now, lambda: mgr.swap_out(tokens, now))
            finally:
                mgr.fault_plan = self.plan
            if mgr.reclaimable_tokens + mgr.gpu_free_tokens - free < tokens:
                assert not scored_frontiers(mgr, GPU, now)
        elif kind == "reclaim":
            _, tokens = op
            freed = self.evicting(GPU_CPU, now, lambda: mgr.reclaim(tokens, now))
            if freed < tokens:
                assert not scored_frontiers(mgr, GPU_CPU, now)
        elif kind == "drop_cpu":
            _, tokens = op
            freed = self.evicting(CPU, now, lambda: mgr.drop_from_cpu(tokens, now))
            if freed < tokens:
                assert not scored_frontiers(mgr, CPU, now)
        elif kind == "suspend":
            _, conv = op
            cache = mgr.conversation(conv)
            if cache is not None:
                gpu = cache.tokens_in(GPU)
                failures = mgr.fault_counters.swap_out_failures
                copied, dropped = mgr.release_conversation_gpu(conv, now)
                assert copied + dropped == gpu and not cache.tokens_in(GPU, GPU_CPU)
                if mgr.fault_counters.swap_out_failures > failures:
                    # The suspension's copy failed: every GPU chunk drops.
                    assert dropped == gpu, (copied, dropped)
                self.open_convs.discard(conv)
        elif kind == "forget":
            _, conv = op
            if conv not in self.open_convs:
                mgr.forget(conv)
                self.totals.pop(conv, None)
        elif kind == "invalidate":
            # The recovery path of a failed or corrupt swap-in.
            _, conv = op
            cache = mgr.conversation(conv)
            given_up = 0 if cache is None else cache.tokens_in(DROPPED)
            dropped = mgr.invalidate_prefix(conv)
            if cache is not None:
                assert not cache.tokens_in(CPU)
                assert cache.tokens_in(DROPPED) == given_up + dropped
        self.check()

    def check(self) -> None:
        """The manager against the walk's model, after every verb."""
        mgr = self.mgr
        mgr._audit()
        assert 0 <= mgr.gpu_resident_tokens <= mgr.gpu_capacity_tokens
        assert 0 <= mgr.cpu_used_tokens <= mgr.cpu_capacity_tokens
        assert mgr.reclaimable_tokens >= 0
        caches = mgr.conversations()
        assert {cache.conv_id: cache.total_tokens for cache in caches} == self.totals
        assert {cache.conv_id for cache in caches if cache.pinned} == self.open_convs
        for cache in caches:
            # Every token is in exactly one tier.
            assert sum(map(cache.tokens_in, ChunkLocation)) == cache.total_tokens

    def fingerprint(self):
        """What a replay of the same ops and fault seed must reproduce."""
        mgr = self.mgr
        return (
            dict(mgr.stats),
            mgr.fault_counters.as_dict(),
            None if self.plan is None else dict(self.plan.fired),
            sorted(
                (cache.conv_id, cache.total_tokens, tuple(cache.starts), cache.pinned)
                for cache in mgr.conversations()
            ),
        )


def ints(lo: int, hi: int, none: bool = False):
    """An op argument: an integer in ``[lo, hi]``, or ``None`` too."""
    return lo, hi, none


CONV = ints(0, 5)
TOKENS = ints(1, 96)
#: Each verb's arguments, drawn alike by hypothesis and by a seeded
#: ``random.Random``.
VERBS = {
    "turn": (CONV, ints(1, 70), ints(0, 1)),
    "append": (CONV, ints(1, 8)),
    "step": (ints(1, 6),),
    "close": (CONV,),
    "swap_out": (TOKENS, ints(0, 3, none=True)),
    "reclaim": (TOKENS,),
    "drop_cpu": (TOKENS,),
    "suspend": (CONV,),
    "forget": (CONV,),
    "invalidate": (CONV,),
}
#: Mostly-zero clock steps: conversations share ``last_active`` stamps,
#: so scores tie and the ``(conv_id, index)`` tie-break decides.
TICKS = (0.0, 0.0, 1.0, 2.0)
#: The tier layouts' CPU capacity, from a drawn one.
LAYOUTS = {
    "gpu-only": lambda cpu: 0,
    "two-tier": lambda cpu: cpu,
}
#: Capacities, in the ranges the walks this one replaced drew, and the
#: oracle walk's own 256/128/96.
GPUS = (96, 512)
CPUS = (64, 128, 256, 2048)
CHUNKS = (8, 16, 32)
RATES = (0.1, 0.25, 0.5)


#: The verbs as drawn: a conversation must be restored and closed again
#: before anything can evict it, so those two come up more often.
DRAWS = [*VERBS, "turn", "close", "close", "close"]


def argument(lo, hi, none):
    values = st.integers(lo, hi)
    return st.one_of(st.none(), values) if none else values


OPERATION = st.one_of(*(
    st.tuples(st.just(verb), *(argument(*arg) for arg in VERBS[verb]))
    for verb in DRAWS
))


def run(steps, **cell) -> Walk:
    walk = Walk(**cell)
    for tick, op in steps:
        walk.apply(tick, op)
    return walk


@pytest.mark.parametrize("whole", [False, True], ids=["chunk", "whole-conversation"])
@pytest.mark.parametrize("policy", ["retention-value", "lru"])
@pytest.mark.parametrize("layout", list(LAYOUTS))
@settings(max_examples=20, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from(TICKS), OPERATION), min_size=20, max_size=60
    ),
    gpu=st.integers(*GPUS),
    cpu=st.sampled_from(CPUS),
    chunk=st.integers(0, len(CHUNKS) - 1),
    fault=st.tuples(st.integers(0, 2**16), st.sampled_from(RATES)),
)
# A failed turn of an open conversation closes it, and a drop then takes
# its partial tail: it must not be grown afterwards.
@example(
    steps=[
        (1.0, ("turn", 0, 1, 1)), (1.0, ("turn", 0, 36, 1)), (1.0, ("turn", 0, 60, 1)),
        (1.0, ("turn", 1, 1, 1)), (1.0, ("turn", 1, 31, 1)), (1.0, ("turn", 1, 60, 1)),
        (1.0, ("append", 0, 1)),
    ],
    gpu=96, cpu=64, chunk=0, fault=(0, 0.25),
)
def test_every_victim_is_the_brute_force_minimum(
    layout, policy, whole, steps, gpu, cpu, chunk, fault
):
    """Each example's ops run unarmed, with the ``fail_at`` schedule and
    with the drawn ``(seed, rate)`` of ``SWAP_OUT`` faults, each at the
    next chunk size from the drawn one: so at all three."""
    cpu = LAYOUTS[layout](cpu)
    for i, arming in enumerate((None, "scheduled", fault)):
        run(
            steps, gpu=gpu, cpu=cpu,
            chunk=CHUNKS[(chunk + i) % len(CHUNKS)], policy=policy, whole=whole,
            arming=arming,
        )


_EXTRA = os.environ.get("CHAOS_EXTRA_SEED")
CHAOS_SEEDS = list(range(50)) + (
    [int(_EXTRA) * 1000 + i for i in range(50)] if _EXTRA else []
)


def chaos_walk(seed: int, layout=None) -> Walk:
    """A walk armed with a seeded ``SWAP_OUT`` rate whose cell,
    capacities and 60 ops all come from ``seed``."""
    rng = random.Random(seed)
    layout = layout or list(LAYOUTS)[seed % len(LAYOUTS)]
    cpu = LAYOUTS[layout](rng.choice(CPUS))
    walk = Walk(
        rng.randint(*GPUS), cpu, rng.choice(CHUNKS),
        rng.choice(("retention-value", "lru")), rng.random() < 0.5,
        (seed, rng.choice(RATES)),
    )
    for _ in range(60):
        verb = rng.choice(DRAWS)
        op = (verb, *(
            None if none and rng.random() < 0.5 else rng.randint(lo, hi)
            for lo, hi, none in VERBS[verb]
        ))
        walk.apply(rng.choice(TICKS), op)
    return walk


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_walk_preserves_invariants(seed):
    """The armed walk keeps every check."""
    chaos_walk(seed)


@pytest.mark.parametrize("seed", range(10))
def test_chaos_walk_is_deterministic(seed):
    """The same seed fires the same faults into the same end state."""
    assert chaos_walk(seed).fingerprint() == chaos_walk(seed).fingerprint()


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
    (1.0, ("swap_out", 48, None)), (0.0, ("reclaim", 48)),
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
    stream stale; and seeded armed walks must check victims in every
    layout, and fire swap-out faults in every layout with a CPU tier to
    copy to."""
    walk = Walk()
    for conv in range(4):
        walk.apply(1.0, ("turn", conv, 64))
        walk.apply(0.0, ("close", conv))
    for op in [
        ("swap_out", 96, None), ("reclaim", 96), ("swap_out", 96, None),
        ("reclaim", 96), ("drop_cpu", 64), ("swap_out", 64, None),
        ("drop_cpu", 160),
    ]:
        walk.apply(1.0, op)
    assert all(walk.checked[key] for key in (GPU, GPU_CPU, CPU)), walk.checked
    walk = run(INTERLEAVED, policy="retention-value")
    assert walk.checked[GPU] == 2, walk.checked
    for policy in ("lru", "retention-value"):
        walk = run(DECODE_STEP, policy=policy)
        assert walk.checked["step"] == 3, walk.checked
    walk = run(STALE_CPU_ENTRY, arming="scheduled")
    # B's chunk, then C's after the stale entry; A's two dropped CPU
    # chunks are CPU minima when they go, so they count here too.
    assert walk.checked["nested cpu"] == 4, walk.checked
    assert walk.mgr.fault_counters.swap_out_failures == 1
    assert locations(walk.mgr.conversation(4)) == [GPU_CPU] * 4
    for layout in LAYOUTS:
        walks = [chaos_walk(seed, layout) for seed in range(5)]
        assert sum(w.checked[GPU] for w in walks), layout
        failures = sum(w.mgr.fault_counters.swap_out_failures for w in walks)
        assert failures if layout != "gpu-only" else not failures, layout


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
