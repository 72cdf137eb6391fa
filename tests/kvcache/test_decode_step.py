"""One decode step for a whole batch equals one ``append_tokens`` per
request at the iteration's clock, with one reclaim scan.

``TieredCacheManager.append_tokens(conv_ids, now)`` grows a batch of
pinned conversations by one token each, all or nothing: it reclaims the
step's whole deficit (growers minus free slots) through one ``GPU_CPU``
victim stream scored at ``now``, then adds one token to each grower.
Twin managers take the same random walk; one grows each batch in one
call, the other calls ``append_tokens([conv_id], now)`` once per
member, and after every step both must agree on every chunk, every move
the observer saw, ``stats``, the tier totals and each location's holders,
and both pass ``_audit()`` and stay within the GPU tier (both twins grow
through the same method, so agreeing alone would not catch a growth
that skips its reclaim).  That includes steps on a full GPU tier that
must reclaim copies.  A step that cannot fit whole (fewer slots free and
reclaimable than growers) must raise ``CacheCapacityError`` and leave the
batched twin exactly as it was; the other twin skips that step (the
engine suspends before it grows, so it never meets one).  Each victim of
the batched step must also be the brute-force minimum of the
conversations' first ``GPU_CPU`` chunks scored at ``now``, and a step
opens at most one ``GPU_CPU`` stream.  The walks run under LRU and under
the paper's retention scorer (the random walk draws one per example):
the retention scorer ranks victims by cost over idle time at ``now``,
LRU by age alone.  A ``fill`` turn takes every free slot, so that later
steps meet a full GPU, and a walk has at least 20 operations: so drawn,
22 steps of the 300 examples reclaim and 495 are refused.

Mutations tried in a copy of the tree, each re-run against
``append_tokens``: growing without reclaiming first fails every test
here (the hypothesis walk through the GPU-tier bound); skipping the up-front tail check fails
``tests/kvcache/test_manager.py::TestAppendTokens::
test_decode_step_refuses_the_whole_batch_up_front``; reclaiming one chunk
per ``reclaim`` call (a scan per chunk) fails
``test_the_walk_reaches_the_reclaim_and_skip_paths``; scoring the decode
step's victims at the grower's ``last_active`` fails
``test_a_decode_step_reclaims_at_the_iterations_clock[retention]``.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LruPolicy, RetentionValuePolicy
from repro.gpu.profiler import AttentionCostProfile
from repro.kvcache import ChunkLocation, TieredCacheManager
from repro.kvcache.manager import CacheCapacityError

from tests.kvcache.layout import locations, spans

GPU_CPU = ChunkLocation.GPU_CPU
CPU = ChunkLocation.CPU

CHUNK = 8
#: ``Cost(l) = l / 8``: a conversation's n-th chunk costs n, so retention
#: values of different conversations interleave instead of degenerating
#: to oldest-first.
PROFILE = AttentionCostProfile(
    chunk_size=CHUNK, context_sizes=(8, 1024), costs=(1.0, 128.0), constant_cost=0.0
)
SCORERS = {"lru": LruPolicy, "retention": lambda: RetentionValuePolicy(PROFILE)}


def one_by_one(mgr, conv_ids, now, refused):
    """The batched twin's step one member at a time, or no step at all
    when the batched twin refused it (which needs it not to fit)."""
    if refused:
        assert mgr.gpu_available_tokens < len(conv_ids), conv_ids
        return True
    for conv_id in conv_ids:
        mgr.append_tokens([conv_id], now)
    return False


def gpu_cpu_minimum(mgr, now, moved):
    """The oracle: ``(conv_id, chunk index)`` of the lowest
    ``(score at now, conv_id)`` among the unpinned conversations' first
    ``GPU_CPU`` chunks, from their lengths and boundaries alone, with chunk
    ``moved = (cache, index)`` looked at as still ``GPU_CPU``."""
    keys = []
    for cache in mgr.conversations():
        where = locations(cache)
        if moved[0] is cache:
            where[moved[1]] = GPU_CPU
        if not cache.pinned and GPU_CPU in where:
            index = where.index(GPU_CPU)
            score = mgr.scorer(spans(cache)[index][1], cache.last_active, now)
            keys.append((score, cache.conv_id, index))
    return min(keys)[1:]


class Twin:
    def __init__(self, gpu: int, cpu: int, scorer) -> None:
        self.mgr = TieredCacheManager(gpu, cpu, chunk_size=CHUNK, scorer=scorer)
        self.moves = []
        self.mgr.observer = self.observe
        #: ``now`` of the decode step in flight, when its victims are checked.
        self.step_now = None
        #: Decode-step victims checked against the oracle.
        self.checked = 0
        #: ``GPU_CPU`` streams (``reclaim`` calls) of the step in flight.
        self.streams = 0
        reclaim = self.mgr.reclaim

        def counted(*args, **kwargs):
            self.streams += 1
            return reclaim(*args, **kwargs)

        self.mgr.reclaim = counted

    def observe(self, cache, index, old, new) -> None:
        self.moves.append((cache.conv_id, index, old, new))
        if self.step_now is not None:
            assert (old, new) == (GPU_CPU, CPU), (cache, index, old, new)
            # The observer runs after the move: look where the chunk was.
            want = gpu_cpu_minimum(self.mgr, self.step_now, (cache, index))
            assert (cache.conv_id, index) == want, (self.step_now, want, index)
            self.checked += 1

    def step(self, conv_ids, now):
        """The whole step in one call; True when it was refused."""
        before = self.state()
        self.step_now, self.streams = now, 0
        try:
            self.mgr.append_tokens(conv_ids, now)
        except CacheCapacityError:
            assert self.state() == before, conv_ids
            return True
        finally:
            self.step_now = None
        assert self.streams <= 1, (conv_ids, now, self.streams)
        return False

    def state(self):
        mgr = self.mgr
        return (
            {
                cache.conv_id: list(zip(spans(cache), locations(cache)))
                for cache in mgr.conversations()
            },
            tuple(self.moves),
            dict(mgr.stats),
            (mgr.gpu_resident_tokens, mgr.reclaimable_tokens,
             mgr.evictable_gpu_tokens, mgr.cpu_used_tokens),
            {loc: set(holders) for loc, holders in mgr._holders.items()},
        )


CONVS = st.integers(0, 5)
OPERATION = st.one_of(
    st.tuples(st.just("turn"), CONVS, st.integers(1, 48)),
    st.tuples(st.just("fill"), CONVS),
    st.tuples(st.just("close"), CONVS),
    st.tuples(st.just("swap_out"), st.integers(1, 64)),
    st.tuples(st.just("reclaim"), st.integers(1, 64)),
    st.tuples(st.just("step"), st.permutations(range(6)), st.integers(1, 6)),
)


def apply(mgr, now, op, grow):
    """One walk step on one twin; returns what the step reports."""
    kind = op[0]
    if kind == "fill":
        # A turn that takes every free slot, so that the next step must
        # reclaim copies (or be refused): random turn sizes seldom fill the GPU
        # exactly while copies are left.
        kind, op = "turn", ("turn", op[1], mgr.gpu_free_tokens)
    if kind == "turn":
        _, conv, tokens = op
        mgr.open(conv, now)
        plan = mgr.plan_restore(conv, tokens)
        try:
            mgr.ensure_capacity(plan.alloc_tokens, now)
            mgr.commit_restore(plan, now)
        except CacheCapacityError:
            mgr.close(conv, now)
    elif kind == "close":
        if mgr.conversation(op[1]) is not None:
            mgr.close(op[1], now)
    elif kind == "swap_out":
        mgr.swap_out(op[1], now)
    elif kind == "reclaim":
        mgr.reclaim(op[1], now)
    else:
        # The running (pinned) conversations that may grow, in a random
        # order: the batch the engine would pass.
        _, order, size = op
        conv_ids = []
        for conv_id in order[:size]:
            cache = mgr.conversation(conv_id)
            if cache is not None and cache.pinned and cache.total_tokens:
                try:
                    cache.check_growable()
                except ValueError:
                    continue
                conv_ids.append(conv_id)
        return grow(conv_ids, now)
    return None


def walk(ops, gpu, cpu, make_scorer):
    batched = Twin(gpu, cpu, make_scorer())
    single = Twin(gpu, cpu, make_scorer())
    paths = Counter()
    for now, op in enumerate(ops):
        exits = batched.mgr.stats["gpu_cpu_exit_tokens"]
        checked = batched.checked
        got = apply(batched.mgr, float(now), op, batched.step)
        want = apply(
            single.mgr, float(now), op,
            lambda conv_ids, now: one_by_one(single.mgr, conv_ids, now, got),
        )
        assert got == want, (op, got, want)
        assert batched.state() == single.state(), op
        for twin in (batched, single):
            twin.mgr._audit()
            assert twin.mgr.gpu_resident_tokens <= twin.mgr.gpu_capacity_tokens, op
        if op[0] == "step":
            paths["reclaimed"] += batched.mgr.stats["gpu_cpu_exit_tokens"] > exits
            paths["victims"] = max(paths["victims"], batched.checked - checked)
            paths["refused"] += got
    return paths, batched.mgr


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(OPERATION, min_size=20, max_size=60),
    gpu=st.integers(32, 96),
    cpu=st.sampled_from([0, 32, 512]),
    scorer=st.sampled_from(sorted(SCORERS)),
)
def test_decode_step_equals_one_append_per_request(ops, gpu, cpu, scorer):
    walk(ops, gpu, cpu, SCORERS[scorer])


def test_the_walk_reaches_the_reclaim_and_skip_paths():
    """A full GPU tier: the batch must reclaim copies to grow, a step with
    nothing left to reclaim is refused whole (the fifth step), and one
    step takes three one-token copies from one stream."""
    every = tuple(range(6))
    ops = [
        ("turn", 0, 24), ("close", 0), ("turn", 1, 23), ("swap_out", 8),
        ("turn", 2, 17),
    ] + [("step", every, 6)] * 5
    for scorer, make_scorer in SCORERS.items():
        paths, _ = walk(ops, gpu=64, cpu=512, make_scorer=make_scorer)
        assert paths["reclaimed"] and paths["refused"], (scorer, paths)
    # Conversations 0-2 hold one copied token each; 3-5 fill the rest of
    # the GPU, so their step has a deficit of three.
    ops = [op for conv in range(3) for op in (("turn", conv, 1), ("close", conv))]
    ops += [("swap_out", 3), ("turn", 3, 24), ("turn", 4, 24), ("turn", 5, 13)]
    ops += [("step", every, 6)]
    for scorer, make_scorer in SCORERS.items():
        paths, mgr = walk(ops, gpu=64, cpu=512, make_scorer=make_scorer)
        assert paths["victims"] == 3 and not paths["refused"], (scorer, paths)
        assert mgr.reclaimable_tokens == 0 and mgr.gpu_free_tokens == 0


@pytest.mark.parametrize("scorer", sorted(SCORERS))
def test_a_decode_step_reclaims_at_the_iterations_clock(scorer):
    """Conversation 0 (idle since t=1, its first copy costs 3) and
    conversation 1 (idle since t=6, costs 1) both hold a copy; growing
    conversation 2 (admitted at t=8) on a full GPU at the iteration's
    clock t=9 reclaims one.  At t=9 the retention scorer takes
    conversation 1 (1/3 < 3/8), while a reclaim scored at the grower's
    ``last_active`` t=8 would take conversation 0 (3/7 < 1/2).  LRU ranks
    by age alone and takes conversation 0 at any clock."""
    ops = [
        ("turn", 0, 24), ("close", 0), ("swap_out", 24), ("reclaim", 16),
        ("turn", 1, 8), ("close", 5), ("close", 1), ("swap_out", 16),
        ("turn", 2, 48), ("step", (2,), 1),
    ]
    paths, mgr = walk(ops, gpu=64, cpu=512, make_scorer=SCORERS[scorer])
    assert paths["reclaimed"] == 1, paths
    copies = {
        conv_id: [loc.value for loc in locations(mgr.conversation(conv_id))]
        for conv_id in (0, 1)
    }
    reclaimed = 1 if scorer == "retention" else 0
    want = {0: ["cpu", "cpu", "gpu_cpu"], 1: ["gpu_cpu"]}
    want[reclaimed][-1] = "cpu"
    assert copies == want, copies
