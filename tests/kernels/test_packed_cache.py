"""Tests for the incremental decode packing cache.

The load-bearing guarantee is *indistinguishability*: after any sequence
of block-table mutations (append / swap-out / swap-in / recompute-split /
request exit), the incrementally maintained packed table must be
array-equal — padding included — to :meth:`PackedDecodeCache.pack_from_scratch`,
and :func:`packed_decode_attention` over the staged K/V must match
:func:`batched_single_token_attention` over a fresh gather.  The property
tests drive randomized interleavings of exactly those mutations; the
chaos variant additionally runs the pool at near-exhaustion so appends
fail mid-loop and conversations are evicted/recycled under pressure.
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
from repro.kvcache import BlockTable, PagePool, PagePoolExhausted

_EXTRA = os.environ.get("CHAOS_EXTRA_SEED")
PROPERTY_SEEDS = [0, 1, 2, 3] + ([int(_EXTRA)] if _EXTRA else [])


def _table(pool, tokens):
    table = BlockTable(pool)
    table.append_tokens(tokens)
    return table


def _sources(convs):
    return [DecodeSlotSource(key=k, table=t) for k, t in sorted(convs.items())]


def _assert_matches_scratch(cache, batch, sources):
    ref_table, ref_lengths = PackedDecodeCache.pack_from_scratch(sources)
    np.testing.assert_array_equal(np.asarray(batch.table), ref_table)
    np.testing.assert_array_equal(np.asarray(batch.lengths), ref_lengths)


class TestLifecycle:
    def test_first_pack_builds_then_steady_state_extends(self):
        pool = PagePool(64, 4)
        convs = {i: _table(pool, 8) for i in range(4)}
        cache = PackedDecodeCache(initial_rows=2, initial_context=4)
        cache.pack(_sources(convs))
        assert cache.stats["rebuilt_rows"] == 4
        for _ in range(3):
            for t in convs.values():
                t.append_tokens(1)
            batch = cache.pack(_sources(convs))
            _assert_matches_scratch(cache, batch, _sources(convs))
        assert cache.stats["extended_rows"] == 12
        assert cache.stats["repaired_rows"] == 0
        # Capacities grew geometrically from the deliberately tiny start.
        assert cache.stats["row_growths"] >= 1
        assert cache.stats["ctx_growths"] >= 1

    def test_unchanged_tables_reuse_rows(self):
        pool = PagePool(16, 4)
        convs = {i: _table(pool, 8) for i in range(2)}
        cache = PackedDecodeCache()
        cache.pack(_sources(convs))
        cache.pack(_sources(convs))
        assert cache.stats["reused_rows"] == 2

    def test_structural_mutation_repairs_only_that_row(self):
        pool = PagePool(64, 4)
        convs = {i: _table(pool, 8) for i in range(4)}
        cache = PackedDecodeCache()
        cache.pack(_sources(convs))
        convs[1].vacate_front(4)
        convs[1].restore_front(4)  # same length, remapped slots
        batch = cache.pack(_sources(convs))
        assert cache.stats["repaired_rows"] == 1
        assert cache.stats["reused_rows"] == 3
        _assert_matches_scratch(cache, batch, _sources(convs))

    def test_new_occupant_rebuilds_row(self):
        pool = PagePool(64, 4)
        convs = {i: _table(pool, 8) for i in range(3)}
        cache = PackedDecodeCache()
        cache.pack(_sources(convs))
        del convs[1]
        convs[9] = _table(pool, 6)
        batch = cache.pack(_sources(convs))
        # conv 9 landed in conv 1's old row (sorted order: 0, 2, 9 — row 1
        # changes occupant from 1 to 2, row 2 from 2 to 9).
        assert cache.stats["rebuilt_rows"] == 3 + 2
        _assert_matches_scratch(cache, batch, _sources(convs))

    def test_recycled_key_with_fresh_table_is_not_extended(self):
        """A recycled conversation id arrives with a brand-new BlockTable
        whose version counters restart at zero — identity checks must
        force a repack rather than trusting the stale row."""
        pool = PagePool(64, 4)
        convs = {0: _table(pool, 8)}
        cache = PackedDecodeCache()
        cache.pack(_sources(convs))
        convs[0].release()
        convs[0] = _table(pool, 5)  # same key, different table object
        batch = cache.pack(_sources(convs))
        assert cache.stats["repaired_rows"] == 1
        _assert_matches_scratch(cache, batch, _sources(convs))

    def test_drop_forgets_row(self):
        """The next pack of a dropped key rebuilds its row — and only its
        row — although neither table changed."""
        pool = PagePool(64, 4)
        convs = {0: _table(pool, 8), 1: _table(pool, 8)}
        cache = PackedDecodeCache()
        cache.pack(_sources(convs))
        rebuilt = cache.stats["rebuilt_rows"]
        cache.drop(1)
        batch = cache.pack(_sources(convs))
        assert cache.stats["rebuilt_rows"] == rebuilt + 1
        assert cache.stats["reused_rows"] == 1
        _assert_matches_scratch(cache, batch, _sources(convs))

    def test_shared_prefix_is_packed_before_table_slots(self):
        pool = PagePool(64, 4)
        prefix_table = _table(pool, 6)
        prefix = prefix_table.slots_array(0, 6)
        convs = {0: _table(pool, 8), 1: _table(pool, 4)}
        cache = PackedDecodeCache()
        sources = [
            DecodeSlotSource(key=k, table=t, prefix=prefix)
            for k, t in sorted(convs.items())
        ]
        batch = cache.pack(sources)
        _assert_matches_scratch(cache, batch, sources)
        for t in convs.values():
            t.append_tokens(1)
        sources = [
            DecodeSlotSource(key=k, table=t, prefix=prefix)
            for k, t in sorted(convs.items())
        ]
        batch = cache.pack(sources)
        assert cache.stats["extended_rows"] == 2
        _assert_matches_scratch(cache, batch, sources)

    def test_empty_pack_rejected(self):
        with pytest.raises(ValueError):
            PackedDecodeCache().pack([])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PackedDecodeCache(initial_rows=0)
        with pytest.raises(ValueError):
            PackedDecodeCache(growth=1.0)


class TestStaging:
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
        cache = PackedDecodeCache()
        for _ in range(4):
            batch = cache.pack(_sources(convs))
            k, v = batch.gathered("L0", k_cache, v_cache)
            table = np.asarray(batch.table)
            np.testing.assert_array_equal(k, k_cache[table])
            np.testing.assert_array_equal(v, v_cache[table])
            for t in convs.values():
                t.append_tokens(1)

    def test_layers_stage_independently(self):
        rng, pool, k_cache, v_cache = self._env()
        k2, v2 = k_cache * 2.0, v_cache * 2.0
        convs = {0: _table(pool, 6)}
        cache = PackedDecodeCache()
        batch = cache.pack(_sources(convs))
        ka, _ = batch.gathered(0, k_cache, v_cache)
        kb, _ = batch.gathered(1, k2, v2)
        np.testing.assert_array_equal(kb, ka * 2.0)

    def test_budget_exceeded_falls_back_to_fresh_gather(self):
        rng, pool, k_cache, v_cache = self._env()
        convs = {0: _table(pool, 6)}
        cache = PackedDecodeCache(staging_budget_bytes=1)
        batch = cache.pack(_sources(convs))
        k, v = batch.gathered("L0", k_cache, v_cache)
        table = np.asarray(batch.table)
        np.testing.assert_array_equal(k, k_cache[table])
        assert cache._staging_disabled

    def test_budget_exceeded_on_growth_falls_back_to_fresh_gather(self):
        rng, pool, k_cache, v_cache = self._env()
        table = _table(pool, 8)
        # Exactly the first allocation: 8 rows x 64 columns x (2, 8) float64.
        cache = PackedDecodeCache(staging_budget_bytes=8 * 64 * 2 * 8 * 8)
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
        cache = PackedDecodeCache()
        for _ in range(3):
            sources = _sources(convs)
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
    staged K/V matches the batched kernel."""

    PAGE = 4

    def _mutate(self, rng, pool, convs, next_key, allow_faults=False):
        """Apply one random mutation; returns the (possibly new) next_key.

        Mutations mirror the serving stack: decode appends, chunk-aligned
        swap-out/swap-in (structural remaps), recompute splits (release +
        rebuild), and conversation exit/arrival with key recycling.
        """
        ops = ["append", "swap_cycle", "recompute", "exit", "arrive"]
        op = ops[int(rng.integers(len(ops)))]
        if not convs:
            op = "arrive"
        try:
            if op == "append":
                key = list(convs)[int(rng.integers(len(convs)))]
                convs[key].append_tokens(int(rng.integers(1, 4)))
            elif op == "swap_cycle":
                # Vacate a page-aligned prefix and restore it, as a
                # swap-out immediately followed by the conversation's
                # return would: same lengths, remapped slots.
                key = list(convs)[int(rng.integers(len(convs)))]
                table = convs[key]
                pages = table.length // self.PAGE
                if pages >= 1:
                    count = self.PAGE * int(rng.integers(1, pages + 1))
                    table.vacate_front(count)
                    table.restore_front(count)
            elif op == "recompute":
                # Recompute-from-scratch rebuilds the table entirely.
                key = list(convs)[int(rng.integers(len(convs)))]
                tokens = convs[key].length
                convs[key].release()
                convs[key] = _table(pool, tokens)
            elif op == "exit":
                key = list(convs)[int(rng.integers(len(convs)))]
                convs[key].release()
                del convs[key]
                if rng.random() < 0.5:
                    # Key recycling: the same conversation id returns
                    # with a fresh table.
                    convs[key] = _table(pool, int(rng.integers(1, 9)))
            elif op == "arrive":
                convs[next_key] = _table(pool, int(rng.integers(1, 9)))
                next_key += 1
        except PagePoolExhausted:
            if not allow_faults:
                raise
            # Allocation failure under pressure: evict a victim wholesale
            # (the engine's recompute-later response) and carry on.
            victim = list(convs)[int(rng.integers(len(convs)))]
            convs[victim].release()
            del convs[victim]
        return next_key

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_incremental_pack_equals_scratch_after_every_mutation(self, seed):
        rng = np.random.default_rng(seed)
        pool = PagePool(256, self.PAGE)
        convs = {i: _table(pool, int(rng.integers(1, 9))) for i in range(4)}
        cache = PackedDecodeCache(initial_rows=2, initial_context=4)
        next_key = 4
        for _ in range(120):
            next_key = self._mutate(rng, pool, convs, next_key)
            if not convs:
                continue
            sources = _sources(convs)
            batch = cache.pack(sources)
            _assert_matches_scratch(cache, batch, sources)
        # The walk must actually have exercised the cheap paths, not
        # repacked every row every time.
        assert cache.stats["extended_rows"] > 0
        assert cache.stats["reused_rows"] > 0

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_staged_attention_matches_oracle_under_mutations(self, seed):
        rng = np.random.default_rng(seed)
        pool = PagePool(128, self.PAGE)
        num_slots = 128 * self.PAGE
        kv_heads, head_dim = 2, 8
        k_cache = rng.standard_normal((num_slots, kv_heads, head_dim))
        v_cache = rng.standard_normal((num_slots, kv_heads, head_dim))
        convs = {i: _table(pool, int(rng.integers(2, 9))) for i in range(3)}
        cache = PackedDecodeCache()
        next_key = 3
        for _ in range(40):
            next_key = self._mutate(rng, pool, convs, next_key)
            if not convs:
                continue
            sources = _sources(convs)
            queries = rng.standard_normal((len(sources), 4, head_dim))
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

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_chaos_pool_exhaustion_mid_walk(self, seed):
        """Same walk on a pool small enough that appends genuinely fail:
        evictions and key churn under pressure must never desynchronize
        the cache from the from-scratch oracle."""
        rng = np.random.default_rng(seed)
        pool = PagePool(24, self.PAGE)
        convs = {i: _table(pool, int(rng.integers(1, 6))) for i in range(3)}
        cache = PackedDecodeCache(initial_rows=2, initial_context=4)
        next_key = 3
        faulted = 0
        for _ in range(150):
            before = pool.num_free_pages
            next_key = self._mutate(rng, pool, convs, next_key, allow_faults=True)
            if pool.num_free_pages > before:
                faulted += 1  # not exact, but pressure is happening
            if not convs:
                continue
            sources = _sources(convs)
            batch = cache.pack(sources)
            _assert_matches_scratch(cache, batch, sources)
        assert pool.num_free_pages <= 24
