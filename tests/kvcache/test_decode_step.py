"""One decode step for a whole batch equals one ``append_tokens`` per
request.

``TieredCacheManager.append_decode_step`` grows a batch in one call and
bumps a partial GPU tail in place; the engine relies on it being
*exactly* ``append_tokens(conv_id, 1)`` for each conversation in order,
including when the GPU tier is full and a growth must reclaim copies, and
when a conversation does not fit and is skipped (the engine suspends it
and carries on with the rest).  Twin managers take the same random walk;
one grows each batch in one call, the other one request at a time, and
after every step both must agree on every chunk, every move the observer
saw, ``stats``, the tier totals and the frontier index, and both pass
``_audit()``.

Mutations tried in a copy of the tree: growing without reclaiming first
fails both tests here; skipping the up-front tail check fails
``tests/kvcache/test_manager.py::TestAppendTokens::
test_decode_step_refuses_the_whole_batch_up_front``.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core import LruPolicy
from repro.kvcache import TieredCacheManager
from repro.kvcache.manager import CacheCapacityError

CHUNK = 8


def batch_step(mgr, conv_ids):
    """The engine's loop: skip (suspend) whoever does not fit."""
    skipped = []
    grown = mgr.append_decode_step(conv_ids)
    while grown < len(conv_ids):
        skipped.append(conv_ids[grown])
        grown += 1 + mgr.append_decode_step(conv_ids[grown + 1:])
    return skipped


def one_by_one(mgr, conv_ids):
    skipped = []
    for conv_id in conv_ids:
        try:
            mgr.append_tokens(conv_id, 1)
        except CacheCapacityError:
            skipped.append(conv_id)
    return skipped


class Twin:
    def __init__(self, gpu: int, cpu: int) -> None:
        self.mgr = TieredCacheManager(gpu, cpu, chunk_size=CHUNK, scorer=LruPolicy())
        self.moves = []
        self.mgr.observer = lambda cache, chunk, old, new: self.moves.append(
            (cache.conv_id, chunk.index, old, new)
        )

    def state(self):
        mgr = self.mgr
        return (
            {
                cache.conv_id: [(c.start, c.end, c.location) for c in cache.chunks]
                for cache in mgr.conversations()
            },
            self.moves,
            dict(mgr.stats),
            (mgr.gpu_resident_tokens, mgr.reclaimable_tokens,
             mgr.evictable_gpu_tokens, mgr.cpu_used_tokens),
            {
                loc: {conv_id: chunk.index for conv_id, chunk in index.items()}
                for loc, index in mgr._frontier.items()
            },
        )


CONVS = st.integers(0, 5)
OPERATION = st.one_of(
    st.tuples(st.just("turn"), CONVS, st.integers(1, 48)),
    st.tuples(st.just("close"), CONVS),
    st.tuples(st.just("swap_out"), st.integers(1, 64)),
    st.tuples(st.just("reclaim"), st.integers(1, 64)),
    st.tuples(st.just("step"), st.permutations(range(6)), st.integers(1, 6)),
)


def apply(mgr, now, op, grow):
    """One walk step on one twin; returns what the step reports."""
    kind = op[0]
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
        # Any known conversation that may grow, pinned or not, in a
        # random order: the batch the engine would pass.
        _, order, size = op
        conv_ids = []
        for conv_id in order[:size]:
            cache = mgr.conversation(conv_id)
            if cache is not None and cache.chunks:
                try:
                    cache.check_growable()
                except ValueError:
                    continue
                conv_ids.append(conv_id)
        return grow(mgr, conv_ids)
    return None


def walk(ops, gpu, cpu):
    batched, single = Twin(gpu, cpu), Twin(gpu, cpu)
    paths = Counter()
    for now, op in enumerate(ops):
        exits = batched.mgr.stats["gpu_cpu_exit_tokens"]
        got = apply(batched.mgr, float(now), op, batch_step)
        want = apply(single.mgr, float(now), op, one_by_one)
        assert got == want, (op, got, want)
        assert batched.state() == single.state(), op
        batched.mgr._audit()
        single.mgr._audit()
        if op[0] == "step":
            paths["reclaimed"] += batched.mgr.stats["gpu_cpu_exit_tokens"] > exits
            paths["skipped"] += bool(got)
    return paths


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(OPERATION, min_size=1, max_size=60),
    gpu=st.integers(32, 96),
    cpu=st.sampled_from([0, 32, 512]),
)
def test_decode_step_equals_one_append_per_request(ops, gpu, cpu):
    walk(ops, gpu, cpu)


def test_the_walk_reaches_the_reclaim_and_skip_paths():
    """A full GPU tier: the batch must reclaim copies to grow, and a
    conversation with nothing left to reclaim is skipped."""
    every = tuple(range(6))
    ops = [
        ("turn", 0, 24), ("close", 0), ("turn", 1, 23), ("swap_out", 24),
        ("turn", 2, 17), ("step", every, 6), ("step", every, 6), ("step", every, 6),
    ]
    paths = walk(ops, gpu=64, cpu=512)
    assert paths["reclaimed"] and paths["skipped"], paths
