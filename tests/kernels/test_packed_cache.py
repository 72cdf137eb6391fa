"""Tests for the incremental decode packing cache.

The load-bearing guarantee is *indistinguishability*: after any sequence
of block-table mutations (append / swap-out / swap-in / recompute-split /
request exit), the incrementally maintained packed table must be
array-equal — padding included — to :meth:`PackedDecodeCache.pack_from_scratch`,
and :func:`packed_decode_attention` over the staged K/V must match
:func:`batched_single_token_attention` over a fresh gather.  The property
tests drive randomized interleavings of exactly those mutations under the
serving loop's contract (one :class:`DecodeSlotSource` per turn, a fresh
one after any structural mutation), and also remap or grow a few live
sources' tables behind the cache's back, so the repair guard runs too;
the chaos variant additionally runs the pool at near-exhaustion so
appends fail mid-loop and conversations are evicted/recycled under
pressure.
"""

import os

import numpy as np
import pytest

from repro.kernels import (
    AttentionRequest,
    DecodeSlotSource,
    PackedDecodeCache,
    batched_single_token_attention,
    packed_decode_attention,
)
from repro.kernels import packed_cache
from repro.kvcache import BlockTable, PagePool, PagePoolExhausted

_EXTRA = os.environ.get("CHAOS_EXTRA_SEED")
PROPERTY_SEEDS = [0, 1, 2, 3] + ([int(_EXTRA)] if _EXTRA else [])


def _table(pool, tokens):
    table = BlockTable(pool)
    table.append_tokens(tokens)
    return table


def _sources(convs):
    """One fresh source per conversation, in key order: a new turn each."""
    return [DecodeSlotSource(t) for _, t in sorted(convs.items())]


def _assert_matches_scratch(cache, batch, sources):
    ref_table, ref_lengths = PackedDecodeCache.pack_from_scratch(sources)
    np.testing.assert_array_equal(np.asarray(batch.table), ref_table)
    np.testing.assert_array_equal(np.asarray(batch.lengths), ref_lengths)


def _capacities(monkeypatch, rows=None, context=None, budget=None):
    """Shrink the cache's starting capacities or staging budget."""
    for name, value in (
        ("INITIAL_ROWS", rows),
        ("INITIAL_CONTEXT", context),
        ("STAGING_BUDGET_BYTES", budget),
    ):
        if value is not None:
            monkeypatch.setattr(packed_cache, name, value)


class TestLifecycle:
    def test_first_pack_builds_then_steady_state_extends(self, monkeypatch):
        _capacities(monkeypatch, rows=2, context=4)
        pool = PagePool(64, 4)
        convs = {i: _table(pool, 8) for i in range(4)}
        sources = _sources(convs)
        cache = PackedDecodeCache()
        cache.pack(sources)
        assert cache.stats["rebuilt_rows"] == 4
        for _ in range(3):
            for t in convs.values():
                t.append_tokens(1)
            batch = cache.pack(sources)
            _assert_matches_scratch(cache, batch, sources)
        assert cache.stats["extended_rows"] == 12
        assert cache.stats["repaired_rows"] == 0
        # Capacities grew geometrically from the deliberately tiny start.
        assert cache.stats["row_growths"] >= 1
        assert cache.stats["ctx_growths"] >= 1

    def test_unchanged_tables_reuse_rows(self):
        pool = PagePool(16, 4)
        sources = _sources({i: _table(pool, 8) for i in range(2)})
        cache = PackedDecodeCache()
        cache.pack(sources)
        cache.pack(sources)
        assert cache.stats["reused_rows"] == 2

    def test_structural_mutation_repairs_only_that_row(self):
        pool = PagePool(64, 4)
        convs = {i: _table(pool, 8) for i in range(4)}
        sources = _sources(convs)
        cache = PackedDecodeCache()
        cache.pack(sources)
        convs[1].vacate_front(4)
        convs[1].restore_front(4)  # same length, remapped slots
        batch = cache.pack(sources)
        assert cache.stats["repaired_rows"] == 1
        assert cache.stats["reused_rows"] == 3
        _assert_matches_scratch(cache, batch, sources)

    def test_a_source_grown_by_more_than_one_slot_is_repaired(self):
        pool = PagePool(64, 4)
        convs = {i: _table(pool, 5) for i in range(2)}
        sources = _sources(convs)
        cache = PackedDecodeCache()
        cache.pack(sources)
        convs[0].append_tokens(3)
        convs[1].append_tokens(1)
        batch = cache.pack(sources)
        assert cache.stats["repaired_rows"] == 1
        assert cache.stats["extended_rows"] == 1
        _assert_matches_scratch(cache, batch, sources)

    def test_new_occupant_rebuilds_row(self):
        pool = PagePool(64, 4)
        convs = {i: _table(pool, 8) for i in range(3)}
        by_key = {k: DecodeSlotSource(t) for k, t in convs.items()}
        cache = PackedDecodeCache()
        cache.pack([by_key[k] for k in sorted(by_key)])
        del by_key[1]
        by_key[9] = DecodeSlotSource(_table(pool, 6))
        sources = [by_key[k] for k in sorted(by_key)]
        batch = cache.pack(sources)
        # conv 9 landed in conv 1's old row (sorted order: 0, 2, 9 — row 1
        # changes occupant from 1 to 2, row 2 from 2 to 9).
        assert cache.stats["rebuilt_rows"] == 3 + 2
        assert cache.stats["reused_rows"] == 1
        _assert_matches_scratch(cache, batch, sources)

    def test_a_new_turn_rebuilds_its_row(self):
        """Rows are not matched across turns: the same table one slot
        longer, named by the next turn's new source, is rebuilt."""
        pool = PagePool(64, 4)
        table = _table(pool, 8)
        cache = PackedDecodeCache()
        cache.pack([DecodeSlotSource(table)])
        table.append_tokens(1)
        sources = [DecodeSlotSource(table)]
        batch = cache.pack(sources)
        assert cache.stats["rebuilt_rows"] == 2
        assert cache.stats["extended_rows"] == 0
        _assert_matches_scratch(cache, batch, sources)

    def test_recycled_key_with_fresh_table_is_not_extended(self):
        """A recycled conversation id arrives with a brand-new BlockTable
        (its structure version restarts at zero) and a new source; a
        table one slot longer than the dead row must still be rewritten,
        not extended."""
        pool = PagePool(64, 4)
        convs = {0: _table(pool, 8)}
        cache = PackedDecodeCache()
        cache.pack(_sources(convs))
        convs[0].release()
        convs[0] = _table(pool, 9)  # same key, different table object
        sources = _sources(convs)
        batch = cache.pack(sources)
        assert cache.stats["rebuilt_rows"] == 2
        assert cache.stats["extended_rows"] == 0
        _assert_matches_scratch(cache, batch, sources)

    def test_shared_prefix_is_packed_before_table_slots(self):
        pool = PagePool(64, 4)
        prefix_table = _table(pool, 6)
        prefix = prefix_table.slots_array(0, 6)
        convs = {0: _table(pool, 8), 1: _table(pool, 4)}
        cache = PackedDecodeCache()
        sources = [DecodeSlotSource(t, prefix) for _, t in sorted(convs.items())]
        batch = cache.pack(sources)
        _assert_matches_scratch(cache, batch, sources)
        for t in convs.values():
            t.append_tokens(1)
        batch = cache.pack(sources)
        assert cache.stats["extended_rows"] == 2
        _assert_matches_scratch(cache, batch, sources)

    def test_empty_pack_rejected(self):
        with pytest.raises(ValueError):
            PackedDecodeCache().pack([])


def _key_transposed(cache, table):
    """A fresh gather of ``table`` laid out like the K staging:
    ``[rows, kv_heads, head_dim, ctx]``."""
    return cache[np.asarray(table)].transpose(0, 2, 3, 1)


def _head_major(cache, table):
    """A fresh gather of ``table`` laid out like the V staging:
    ``[rows, kv_heads, ctx, head_dim]``."""
    return cache[np.asarray(table)].transpose(0, 2, 1, 3)


class TestStaging:
    """Staging is in the cache's dtype, K key-transposed ``[rows,
    kv_heads, head_dim, ctx]`` and V head-major ``[rows, kv_heads, ctx,
    head_dim]``.

    Mutation record (run on a copy of the tree): a context regrow that
    neither copies the old staging nor resets the gathered watermarks
    fails ``test_first_gather_after_context_regrow_equals_fresh_gather``
    (and two seeds of the staged-attention property walk, and both
    ``tests/backends/test_equivalence.py`` transcript checks).  K staged
    head-major and handed to the kernel as its transposed view rounds
    the same and moves no token, so only
    ``test_staging_is_head_major_in_the_cache_dtype`` (both dtypes)
    fails on it.
    """

    def _env(self, seed=0, num_pages=64, page_size=4, kv_heads=2, head_dim=8):
        rng = np.random.default_rng(seed)
        pool = PagePool(num_pages, page_size)
        num_slots = num_pages * page_size
        k_cache = rng.standard_normal((num_slots, kv_heads, head_dim))
        v_cache = rng.standard_normal((num_slots, kv_heads, head_dim))
        return rng, pool, k_cache, v_cache

    def test_staged_kv_equals_fresh_gather_across_steps(self):
        rng, pool, k_cache, v_cache = self._env()
        convs = {i: _table(pool, 6) for i in range(3)}
        sources = _sources(convs)
        cache = PackedDecodeCache()
        for _ in range(4):
            batch = cache.pack(sources)
            k, v = batch.gathered("L0", k_cache, v_cache)
            np.testing.assert_array_equal(k, _key_transposed(k_cache, batch.table))
            np.testing.assert_array_equal(v, _head_major(v_cache, batch.table))
            for t in convs.values():
                t.append_tokens(1)

    def test_first_gather_after_context_regrow_equals_fresh_gather(
        self, monkeypatch
    ):
        _capacities(monkeypatch, rows=4, context=6)
        rng, pool, k_cache, v_cache = self._env()
        convs = {i: _table(pool, 3 + i) for i in range(3)}
        cache = PackedDecodeCache()
        cache.pack(_sources(convs)).gathered(0, k_cache, v_cache)
        for t in convs.values():
            t.append_tokens(1)
        sources = _sources(convs)  # the next turn's
        cache.pack(sources).gathered(0, k_cache, v_cache)
        for t in convs.values():
            t.append_tokens(1)
        batch = cache.pack(sources)
        assert cache.stats["ctx_growths"] == 1
        k, v = batch.gathered(0, k_cache, v_cache)
        fresh_k = _key_transposed(k_cache, batch.table)
        fresh_v = _head_major(v_cache, batch.table)
        for row, length in enumerate(batch.lengths):  # padding is masked
            np.testing.assert_array_equal(
                k[row, :, :, :length], fresh_k[row, :, :, :length]
            )
            np.testing.assert_array_equal(v[row, :, :length], fresh_v[row, :, :length])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_staging_is_head_major_in_the_cache_dtype(self, dtype):
        """Both tiles keep the KV-head axis outside the context.  Each
        (row, head) K tile is ``[head_dim, ctx]`` with unit stride
        along the context, so ``q @ K`` is a plain GEMM; each V tile is
        one contiguous ``[ctx, head_dim]`` block.  Staging never widens
        the cache's dtype (a float64 staging of a float32 cache costs
        resident memory)."""
        rng, pool, k_cache, v_cache = self._env()
        k_cache, v_cache = k_cache.astype(dtype), v_cache.astype(dtype)
        cache = PackedDecodeCache()
        batch = cache.pack(_sources({0: _table(pool, 6), 1: _table(pool, 9)}))
        k, v = batch.gathered(0, k_cache, v_cache)
        assert k.shape == (2, 2, 8, 9)
        assert v.shape == (2, 2, 9, 8)
        assert k.dtype == v.dtype == dtype
        item = k.itemsize
        # K: unit stride along the context, one full row pitch per
        # head_dim step.
        assert k.strides[3] == item and k.strides[2] >= 9 * item
        assert v.strides[2:] == (8 * item, item)
        for staging in cache._staging.values():
            assert staging.k.dtype == staging.v.dtype == dtype

    def test_group_of_one_keeps_k_head_major_in_memory(self):
        """Without query-head groups the score product is a matrix-vector
        product whose rounding follows K's layout; that K is staged
        head-major and handed out as its key-transposed view."""
        rng, pool, k_cache, v_cache = self._env()
        cache = PackedDecodeCache()
        batch = cache.pack(_sources({0: _table(pool, 9), 1: _table(pool, 9)}))
        k, v = batch.gathered(0, k_cache, v_cache, key_transposed=False)
        np.testing.assert_array_equal(k, _key_transposed(k_cache, batch.table))
        assert k.shape == (2, 2, 8, 9)
        assert k.strides[2:] == (k.itemsize, 8 * k.itemsize)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_heads", [2, 4, 8])
    def test_attention_is_bit_identical_to_batched_kernel(self, dtype, num_heads):
        """Query-head groups of two and four, padded rows and a
        full-length row: the packed kernel's bits are the batched
        kernel's.  A group of one (two heads over two KV heads) is a
        matrix-vector product whose rounding follows K's row pitch,
        which differs between the staging and a fresh gather; it is
        held to float32 rounding."""
        rng, pool, k_cache, v_cache = self._env()
        k_cache, v_cache = k_cache.astype(dtype), v_cache.astype(dtype)
        convs = {i: _table(pool, 3 + 7 * i) for i in range(3)}
        sources = _sources(convs)
        cache = PackedDecodeCache()
        for _ in range(3):
            queries = rng.standard_normal((3, num_heads, 8)).astype(dtype)
            out = packed_decode_attention(
                queries, cache.pack(sources), 0, k_cache, v_cache
            )
            ref = batched_single_token_attention(
                [
                    AttentionRequest(
                        query=queries[i : i + 1],
                        slots=s.table.slots_array(0, s.table.length),
                    )
                    for i, s in enumerate(sources)
                ],
                k_cache,
                v_cache,
            )
            if num_heads == 2:
                np.testing.assert_allclose(out, np.concatenate(ref), atol=1e-6)
            else:
                np.testing.assert_array_equal(out, np.concatenate(ref))
            for t in convs.values():
                t.append_tokens(1)

    def test_each_layer_gathers_from_its_own_watermark(self, monkeypatch):
        """A pack computes its stale-row index once and shares it among
        layers whose gathered watermarks are equal.  Here they disagree
        within one pack: a layer key first gathered mid-run, a layer that
        skipped a pack, a context regrow between packs, and a layer whose
        staging would exceed the budget arriving mid-pack (every later
        gather falls back to a fresh one).  Every layer's staged K/V must
        still be a fresh gather of the packed table."""
        rng, pool, k_cache, v_cache = self._env(num_pages=128)
        wide_shape = (k_cache.shape[0], 4, 16)
        layers = {
            "L0": (k_cache, v_cache),
            "L1": (2.0 * k_cache, 2.0 * v_cache),
            "L2": (3.0 * k_cache, 3.0 * v_cache),
            # Four times the others' staging: over the budget below.
            "wide": (rng.standard_normal(wide_shape), rng.standard_normal(wide_shape)),
        }
        convs = {i: _table(pool, 5 + i) for i in range(3)}
        # Rows 4 x 33 columns x 2 heads x 8 dims x 8 bytes fit; "wide"
        # does not.
        _capacities(monkeypatch, rows=4, context=16, budget=20_000)
        cache = PackedDecodeCache()
        sources = _sources(convs)
        schedule = [  # (tokens appended before the pack, layers in order)
            (0, ("L0", "L1")),
            (1, ("L0", "L1")),
            (1, ("L0", "L2", "L1")),  # L2 first gathered mid-run
            (1, ("L0", "L2")),  # L1 skips this pack
            (1, ("L1", "L0", "L2")),  # L1 two columns behind
            (12, ("L0", "L1", "L2")),  # a new turn; the context regrows
            (1, ("L0", "L1")),
            (1, ("L0", "wide", "L1", "L2")),  # the budget fallback
        ]
        for grow, order in schedule:
            for t in convs.values():
                t.append_tokens(grow)
            if grow > 1:
                sources = _sources(convs)
            batch = cache.pack(sources)
            for key in order:
                k_layer, v_layer = layers[key]
                k, v = batch.gathered(key, k_layer, v_layer)
                fresh_k = _key_transposed(k_layer, batch.table)
                fresh_v = _head_major(v_layer, batch.table)
                for row, length in enumerate(batch.lengths):  # padding is masked
                    np.testing.assert_array_equal(
                        k[row, :, :, :length], fresh_k[row, :, :, :length]
                    )
                    np.testing.assert_array_equal(
                        v[row, :, :length], fresh_v[row, :, :length]
                    )
        assert cache.stats["ctx_growths"] == 1
        assert cache._staging_disabled

    def test_layers_stage_independently(self):
        rng, pool, k_cache, v_cache = self._env()
        k2, v2 = k_cache * 2.0, v_cache * 2.0
        convs = {0: _table(pool, 6)}
        cache = PackedDecodeCache()
        batch = cache.pack(_sources(convs))
        ka, _ = batch.gathered(0, k_cache, v_cache)
        kb, _ = batch.gathered(1, k2, v2)
        np.testing.assert_array_equal(kb, ka * 2.0)

    def test_budget_exceeded_falls_back_to_fresh_gather(self, monkeypatch):
        _capacities(monkeypatch, budget=1)
        rng, pool, k_cache, v_cache = self._env()
        convs = {0: _table(pool, 6)}
        cache = PackedDecodeCache()
        batch = cache.pack(_sources(convs))
        k, v = batch.gathered("L0", k_cache, v_cache)
        np.testing.assert_array_equal(k, _key_transposed(k_cache, batch.table))
        np.testing.assert_array_equal(v, _head_major(v_cache, batch.table))
        assert cache._staging_disabled

    def test_budget_exceeded_on_growth_falls_back_to_fresh_gather(
        self, monkeypatch
    ):
        # Exactly the first allocation: 8 rows x 2 heads x 64 columns x 8
        # float64.
        _capacities(monkeypatch, budget=8 * 64 * 2 * 8 * 8)
        rng, pool, k_cache, v_cache = self._env()
        table = _table(pool, 8)
        cache = PackedDecodeCache()
        cache.pack(_sources({0: table})).gathered(0, k_cache, v_cache)
        assert not cache._staging_disabled
        table.append_tokens(192)  # regrows the 64-column staging past budget
        batch = cache.pack(_sources({0: table}))
        assert cache._staging_disabled and not cache._staging
        queries = rng.standard_normal((1, 4, 8))
        out = packed_decode_attention(queries, batch, 0, k_cache, v_cache)
        (ref,) = batched_single_token_attention(
            [AttentionRequest(query=queries, slots=table.slots_array(0, 200))],
            k_cache,
            v_cache,
        )
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_attention_matches_batched_kernel(self):
        rng, pool, k_cache, v_cache = self._env()
        convs = {i: _table(pool, 4 + 3 * i) for i in range(3)}
        sources = _sources(convs)
        cache = PackedDecodeCache()
        for _ in range(3):
            queries = rng.standard_normal((len(sources), 4, k_cache.shape[2]))
            batch = cache.pack(sources)
            out = packed_decode_attention(queries, batch, 0, k_cache, v_cache)
            requests = [
                AttentionRequest(
                    query=queries[i : i + 1],
                    slots=s.table.slots_array(0, s.table.length),
                )
                for i, s in enumerate(sources)
            ]
            ref = np.concatenate(
                batched_single_token_attention(requests, k_cache, v_cache)
            )
            np.testing.assert_allclose(out, ref, atol=1e-12)
            for t in convs.values():
                t.append_tokens(1)

    def test_query_batch_mismatch_rejected(self):
        rng, pool, k_cache, v_cache = self._env()
        cache = PackedDecodeCache()
        batch = cache.pack(_sources({0: _table(pool, 4)}))
        with pytest.raises(ValueError):
            packed_decode_attention(
                rng.standard_normal((2, 4, 8)), batch, 0, k_cache, v_cache
            )


class TestPropertyRandomInterleavings:
    """Satellite guarantee: after every random mutation the incremental
    pack is array-equal to a from-scratch pack, and attention over the
    staged K/V matches the batched kernel.

    The walks follow the serving loop's contract: a source lives for one
    turn, its table only grows by one slot per decode step, and a turn
    that follows a structural mutation arrives with a new source.  Two
    mutations break the contract on purpose (a live source's table
    remapped, or grown by several slots), so the repair guard runs."""

    PAGE = 4
    OPS = ("decode", "turn", "swap_cycle", "recompute", "exit", "arrive",
           "remap_live", "grow_live")

    def _mutate(self, rng, pool, convs, sources, next_key, allow_faults=False):
        """Apply one random mutation; returns the (possibly new) next_key.

        ``convs`` maps a conversation id to its table and ``sources`` to
        its current turn's source.  Mutations mirror the serving stack:
        decode appends, a new turn's prompt, chunk-aligned swap-out/swap-in
        (structural remaps), recompute splits (release + rebuild), and
        conversation exit/arrival with key recycling.
        """
        op = self.OPS[int(rng.integers(len(self.OPS)))]
        if not convs:
            op = "arrive"
        key = list(convs)[int(rng.integers(len(convs)))] if convs else None
        try:
            if op == "decode":
                convs[key].append_tokens(1)
            elif op == "turn":
                convs[key].append_tokens(int(rng.integers(1, 4)))
                sources[key] = DecodeSlotSource(convs[key])
            elif op in ("swap_cycle", "remap_live"):
                # Vacate a page-aligned prefix and restore it, as a
                # swap-out followed by the conversation's return would:
                # same lengths, remapped slots.
                table = convs[key]
                pages = table.length // self.PAGE
                if pages >= 1:
                    count = self.PAGE * int(rng.integers(1, pages + 1))
                    table.vacate_front(count)
                    table.restore_front(count)
                if op == "swap_cycle":
                    sources[key] = DecodeSlotSource(table)
            elif op == "grow_live":
                convs[key].append_tokens(int(rng.integers(2, 5)))
            elif op == "recompute":
                # Recompute-from-scratch rebuilds the table entirely.
                tokens = convs[key].length
                convs[key].release()
                convs[key] = _table(pool, tokens)
                sources[key] = DecodeSlotSource(convs[key])
            elif op == "exit":
                convs.pop(key).release()
                del sources[key]
                if rng.random() < 0.5:
                    # Key recycling: the same conversation id returns
                    # with a fresh table.
                    convs[key] = _table(pool, int(rng.integers(1, 9)))
                    sources[key] = DecodeSlotSource(convs[key])
            elif op == "arrive":
                convs[next_key] = _table(pool, int(rng.integers(1, 9)))
                sources[next_key] = DecodeSlotSource(convs[next_key])
                next_key += 1
        except PagePoolExhausted:
            if not allow_faults:
                raise
            # Allocation failure under pressure: evict a victim wholesale
            # (the engine's recompute-later response) and carry on.
            victim = list(convs)[int(rng.integers(len(convs)))]
            convs.pop(victim).release()
            sources.pop(victim, None)
        return next_key

    @staticmethod
    def _start(pool, rng, count, lo, hi):
        convs = {i: _table(pool, int(rng.integers(lo, hi))) for i in range(count)}
        return convs, {k: DecodeSlotSource(t) for k, t in convs.items()}

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_incremental_pack_equals_scratch_after_every_mutation(
        self, seed, monkeypatch
    ):
        _capacities(monkeypatch, rows=2, context=4)
        rng = np.random.default_rng(seed)
        pool = PagePool(256, self.PAGE)
        convs, sources = self._start(pool, rng, 4, 1, 9)
        cache = PackedDecodeCache()
        next_key = 4
        for _ in range(120):
            next_key = self._mutate(rng, pool, convs, sources, next_key)
            if not convs:
                continue
            batch_sources = [sources[k] for k in sorted(sources)]
            batch = cache.pack(batch_sources)
            _assert_matches_scratch(cache, batch, batch_sources)
        # The walk must actually have exercised every path, not repacked
        # every row every time.
        for name in ("extended_rows", "reused_rows", "repaired_rows", "rebuilt_rows"):
            assert cache.stats[name] > 0, name

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_staged_attention_matches_oracle_under_mutations(self, seed):
        rng = np.random.default_rng(seed)
        pool = PagePool(128, self.PAGE)
        num_slots = 128 * self.PAGE
        kv_heads, head_dim = 2, 8
        k_cache = rng.standard_normal((num_slots, kv_heads, head_dim))
        v_cache = rng.standard_normal((num_slots, kv_heads, head_dim))
        convs, sources = self._start(pool, rng, 3, 2, 9)
        cache = PackedDecodeCache()
        next_key = 3
        for _ in range(40):
            next_key = self._mutate(rng, pool, convs, sources, next_key)
            if not convs:
                continue
            batch_sources = [sources[k] for k in sorted(sources)]
            queries = rng.standard_normal((len(batch_sources), 4, head_dim))
            batch = cache.pack(batch_sources)
            out = packed_decode_attention(queries, batch, 0, k_cache, v_cache)
            requests = [
                AttentionRequest(
                    query=queries[i : i + 1],
                    slots=s.table.slots_array(0, s.table.length),
                )
                for i, s in enumerate(batch_sources)
            ]
            ref = np.concatenate(
                batched_single_token_attention(requests, k_cache, v_cache)
            )
            np.testing.assert_allclose(out, ref, atol=1e-12)
        assert cache.stats["extended_rows"] > 0

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_chaos_pool_exhaustion_mid_walk(self, seed, monkeypatch):
        """Same walk on a pool small enough that appends genuinely fail:
        evictions and key churn under pressure must never desynchronize
        the cache from the from-scratch oracle."""
        _capacities(monkeypatch, rows=2, context=4)
        rng = np.random.default_rng(seed)
        pool = PagePool(24, self.PAGE)
        convs, sources = self._start(pool, rng, 3, 1, 6)
        cache = PackedDecodeCache()
        next_key = 3
        for _ in range(150):
            next_key = self._mutate(
                rng, pool, convs, sources, next_key, allow_faults=True
            )
            if not convs:
                continue
            batch_sources = [sources[k] for k in sorted(sources)]
            batch = cache.pack(batch_sources)
            _assert_matches_scratch(cache, batch, batch_sources)
        assert pool.num_free_pages <= 24
