"""Fast-path vs reference equivalence for the PagedTransformer.

``use_fast_paths`` switches the forward pass between the per-layer
reference path (RoPE + write + split + tiled kernel per request per
layer, every row) and the vectorized one (hoisted planning, whole-batch
RoPE and KV store, packed decode cache, ragged multi-token kernel, last
layer pruned to each request's last row).  Both must produce the same
logits for every batch shape — the fast path is pure mechanics, never
different math.

Every test runs at both compute dtypes (``tests/model/conftest.py``): the
two paths sum in different orders, so logits agree to 1e-9 at float64 and
to :data:`FLOAT32_TOL` at float32; every bitwise assertion holds at both.
"""

import numpy as np
import pytest

from repro.backends import Backend
from repro.kernels.packed_cache import DecodeSlotSource
from repro.kernels.ragged import TILE_ROWS
from repro.kvcache import BlockTable, KVStorage, PagePool
from repro.model.transformer import DecodeRequest, ForwardRequest, PagedTransformer

#: The largest float32 gap measured across this module's comparisons is
#: 2.3e-6 absolute, on stored K of magnitude up to 4.4 after a 130-token
#: recomputed prefix (~6 ulp of the largest element); ~10x room.
FLOAT32_TOL = dict(rtol=0, atol=2e-5)


def tol(dtype):
    """The bound the fast and reference paths must agree to."""
    return FLOAT32_TOL if dtype == np.float32 else dict(rtol=1e-9, atol=1e-9)


def model(config, dtype, num_slots=256, seed=0, **kwargs):
    """A model over fresh ``dtype`` storage (its compute dtype)."""
    return PagedTransformer(
        config, KVStorage(config, num_slots=num_slots, dtype=dtype), seed=seed,
        **kwargs,
    )


def paired_models(config, dtype, num_slots=256, seed=0):
    """Two identically-seeded models, fast paths on vs off."""
    fast = model(config, dtype, num_slots, seed)
    reference = model(config, dtype, num_slots, seed, use_fast_paths=False)
    assert fast.use_fast_paths and not reference.use_fast_paths
    return fast, reference


def run_both(fast, reference, batches):
    """Run the same batch sequence through both models, comparing the
    next-token logits and then every row's logits (the second pass
    rewrites the same K/V)."""
    bound = tol(fast.dtype)
    for batch in batches:
        for entry in ("forward", "forward_all_rows"):
            out_fast = getattr(fast, entry)(batch)
            out_ref = getattr(reference, entry)(batch)
            assert len(out_fast) == len(out_ref)
            for got, want in zip(out_fast, out_ref):
                np.testing.assert_allclose(got, want, **bound)


class TestFastPathEquivalence:
    def test_prefill_batch(self, config, dtype):
        rng = np.random.default_rng(0)
        fast, reference = paired_models(config, dtype)
        batch = []
        used = 0
        for n in (7, 12, 1):
            ids = rng.integers(0, config.vocab_size, size=n)
            batch.append(
                ForwardRequest(
                    input_ids=ids, context_slots=list(range(used, used + n))
                )
            )
            used += n
        run_both(fast, reference, [batch])

    def test_decode_batch_dispatches_batched_kernel(self, config, dtype):
        """All-generation batches with explicit context slots go through
        the batched ragged kernel, one one-row query each; logits and
        cache writes must still match the per-layer reference."""
        rng = np.random.default_rng(1)
        fast, reference = paired_models(config, dtype)
        prefills, decodes = [], []
        used = 0
        for n in (5, 9, 3, 6):
            slots = list(range(used, used + n + 1))
            used += n + 1
            ids = rng.integers(0, config.vocab_size, size=n)
            prefills.append(ForwardRequest(input_ids=ids, context_slots=slots[:n]))
            decodes.append(
                ForwardRequest(
                    input_ids=rng.integers(0, config.vocab_size, size=1),
                    context_slots=slots,
                )
            )
        run_both(fast, reference, [prefills, decodes])
        # State written by the decode step matches slot-for-slot.
        np.testing.assert_allclose(
            fast.storage.k, reference.storage.k, **tol(dtype)
        )
        np.testing.assert_allclose(
            fast.storage.v, reference.storage.v, **tol(dtype)
        )

    def test_mixed_batch(self, config, dtype):
        rng = np.random.default_rng(2)
        fast, reference = paired_models(config, dtype)
        warm = [
            ForwardRequest(
                input_ids=rng.integers(0, config.vocab_size, size=4),
                context_slots=[20, 21, 22, 23],
            )
        ]
        mixed = [
            ForwardRequest(
                input_ids=rng.integers(0, config.vocab_size, size=6),
                context_slots=list(range(6)),
            ),
            ForwardRequest(
                input_ids=rng.integers(0, config.vocab_size, size=1),
                context_slots=[20, 21, 22, 23, 24],
            ),
        ]
        run_both(fast, reference, [warm, mixed])

    def test_dropped_prefix_recompute(self, config, dtype):
        """Sub-request splitting (Figure 8d) goes through the hoisted
        span plan on the fast path."""
        rng = np.random.default_rng(3)
        dropped, cached, prompt = 3, 5, 4
        total = dropped + cached + prompt
        tokens = rng.integers(0, config.vocab_size, size=total)
        slots = list(rng.permutation(100)[:total])
        fast, reference = paired_models(config, dtype)
        warm = [
            ForwardRequest(
                input_ids=tokens[: dropped + cached],
                context_slots=slots[: dropped + cached],
            )
        ]
        new_prefix = list(range(110, 110 + dropped))
        recompute = [
            ForwardRequest(
                input_ids=np.concatenate(
                    [tokens[:dropped], tokens[dropped + cached:]]
                ),
                context_slots=new_prefix + slots[dropped:],
                dropped=dropped,
            )
        ]
        run_both(fast, reference, [warm, recompute])

    def test_multi_turn_conversation(self, config, dtype):
        """Cache state built by the fast path keeps later turns equal."""
        rng = np.random.default_rng(4)
        fast, reference = paired_models(config, dtype)
        history = 0
        batches = []
        for turn_len in (6, 1, 1, 4, 1):
            ids = rng.integers(0, config.vocab_size, size=turn_len)
            slots = list(range(history + turn_len))
            history += turn_len
            batches.append([ForwardRequest(input_ids=ids, context_slots=slots)])
        run_both(fast, reference, batches)

    def test_toggle_mid_stream(self, config, dtype):
        """Flipping use_fast_paths between steps never changes results —
        the two paths share the same cache layout."""
        rng = np.random.default_rng(5)
        toggled = model(config, dtype, num_slots=64)
        mirror = model(config, dtype, num_slots=64)
        history = 0
        for i, turn_len in enumerate((5, 1, 1, 2)):
            ids = rng.integers(0, config.vocab_size, size=turn_len)
            slots = list(range(history + turn_len))
            history += turn_len
            toggled.use_fast_paths = i % 2 == 0
            batch_a = [ForwardRequest(input_ids=ids, context_slots=slots)]
            batch_b = [ForwardRequest(input_ids=ids, context_slots=slots)]
            got = toggled.forward(batch_a)[0]
            want = mirror.forward(batch_b)[0]
            np.testing.assert_allclose(got, want, **tol(dtype))


class _ReferencePathOverRaggedKernel(Backend):
    """Hands the reference path the fast path's kernel, so the two differ
    only in *how* they apply RoPE and store KV — which must not change a
    bit."""

    def multi_token_attention(self, requests, k_cache, v_cache):
        return self.ragged_attention(requests, k_cache, v_cache)


def test_whole_batch_rope_and_single_kv_write_are_bit_exact(config, dtype):
    """One forward over a recompute split whose dropped prefix spans more
    than two query tiles, a short prefill and a decode-shaped request with
    explicit ``context_slots``, all behind a shared system prefix: logits
    within 1e-9 (float32: :data:`FLOAT32_TOL`) of the reference path, and
    — against the reference path run over the same kernel — logits and
    stored K/V bitwise equal."""
    bound = tol(dtype)
    rng = np.random.default_rng(6)
    shared, dropped, cached, prompt = 5, 2 * TILE_ROWS + 2, 20, 7
    free = [int(s) for s in rng.permutation(np.arange(shared, 512))]
    system = list(range(shared))

    def take(n):
        return system + [free.pop() for _ in range(n)]

    def ids(n):
        return rng.integers(0, config.vocab_size, size=n)

    long_ids, long_slots = ids(dropped + cached + prompt), take(dropped + cached)
    decode_ids, decode_slots = ids(10), take(10)
    warm = [
        ForwardRequest(
            input_ids=long_ids[: dropped + cached],
            context_slots=long_slots,
            shared_prefix=shared,
        ),
        ForwardRequest(
            input_ids=decode_ids[:9],
            context_slots=decode_slots[:-1],
            shared_prefix=shared,
        ),
    ]
    mixed = [
        ForwardRequest(  # prefix dropped, recomputed into fresh slots
            input_ids=np.concatenate(
                [long_ids[:dropped], long_ids[dropped + cached :]]
            ),
            context_slots=take(dropped)
            + long_slots[shared + dropped :]
            + take(prompt)[shared:],
            dropped=dropped,
            shared_prefix=shared,
        ),
        ForwardRequest(
            input_ids=ids(6), context_slots=take(6), shared_prefix=shared
        ),
        ForwardRequest(
            input_ids=decode_ids[9:],
            context_slots=decode_slots,
            shared_prefix=shared,
        ),
    ]
    batches = [
        [ForwardRequest(input_ids=ids(shared), context_slots=system)],
        warm,
        mixed,
    ]

    fast, reference = paired_models(config, dtype, num_slots=512)
    _, same_kernel = paired_models(config, dtype, num_slots=512)
    same_kernel.backend = _ReferencePathOverRaggedKernel()
    for batch in batches:
        out_fast = fast.forward_all_rows(batch)
        for got, want in zip(out_fast, reference.forward_all_rows(batch)):
            np.testing.assert_allclose(got, want, **bound)
        for got, want in zip(out_fast, same_kernel.forward_all_rows(batch)):
            np.testing.assert_array_equal(got, want)
    np.testing.assert_allclose(fast.storage.k, reference.storage.k, **bound)
    np.testing.assert_allclose(fast.storage.v, reference.storage.v, **bound)
    np.testing.assert_array_equal(fast.storage.k, same_kernel.storage.k)
    np.testing.assert_array_equal(fast.storage.v, same_kernel.storage.v)


def _ids(rng, config, n):
    return rng.integers(0, config.vocab_size, size=n)


def _plain_prefill(rng, config):
    batch, used = [], 0
    for n in (7, 12, 3):
        slots = list(range(used, used + n))
        batch.append(ForwardRequest(input_ids=_ids(rng, config, n), context_slots=slots))
        used += n
    return [], batch


def _recompute_split(rng, config):
    """A Figure 8(d) split, and a request whose whole input is a dropped
    prefix in front of a cached tail."""
    dropped, cached, prompt = 3, 5, 4
    tokens = _ids(rng, config, dropped + cached + prompt)
    slots = [int(s) for s in rng.permutation(100)[: dropped + cached + prompt]]
    only = _ids(rng, config, 9)
    warm = [
        ForwardRequest(input_ids=tokens[: dropped + cached], context_slots=slots[: dropped + cached]),
        ForwardRequest(input_ids=only, context_slots=list(range(120, 129))),
    ]
    batch = [
        ForwardRequest(
            input_ids=np.concatenate([tokens[:dropped], tokens[dropped + cached :]]),
            context_slots=list(range(110, 110 + dropped)) + slots[dropped:],
            dropped=dropped,
        ),
        ForwardRequest(
            input_ids=only[:4],
            context_slots=list(range(130, 134)) + list(range(124, 129)),
            dropped=4,
        ),
    ]
    return [warm], batch


def _shared_prefix(rng, config):
    system = list(range(4))
    warm = [ForwardRequest(input_ids=_ids(rng, config, 4), context_slots=system)]
    batch = [
        ForwardRequest(
            input_ids=_ids(rng, config, n),
            context_slots=system + list(range(lo, lo + n)),
            shared_prefix=len(system),
        )
        for lo, n in ((10, 6), (20, 3))
    ]
    return [warm], batch


def _mixed_one_and_multi_row(rng, config):
    warm = [
        ForwardRequest(input_ids=_ids(rng, config, 4), context_slots=[20, 21, 22, 23]),
        ForwardRequest(input_ids=_ids(rng, config, 5), context_slots=list(range(30, 35))),
    ]
    batch = [
        ForwardRequest(input_ids=_ids(rng, config, 6), context_slots=list(range(6))),
        ForwardRequest(input_ids=_ids(rng, config, 1), context_slots=list(range(20, 25))),
        ForwardRequest(input_ids=_ids(rng, config, 2), context_slots=list(range(40, 42))),
        ForwardRequest(input_ids=_ids(rng, config, 1), context_slots=list(range(30, 36))),
    ]
    return [warm], batch


def _empty(rng, config):
    return [], []


@pytest.mark.parametrize(
    "scenario",
    [_plain_prefill, _recompute_split, _shared_prefix, _mixed_one_and_multi_row, _empty],
    ids=lambda f: f.__name__.strip("_"),
)
def test_forward_is_the_last_row_of_every_row(config, dtype, scenario):
    """``forward`` (last layer pruned to each request's last row) equals
    the last row of ``forward_all_rows`` to 1e-12 (float32:
    :data:`FLOAT32_TOL`), and leaves the KV storage bitwise equal to it.

    Mutation record (each run on a copy of the tree): keeping each
    request's first row instead of its last fails every non-empty
    scenario here, and the serving differentials in ``tests/core``,
    ``tests/backends`` and ``tests/faults``; skipping the last layer's
    KV write for the pruned rows fails the storage comparison of every
    non-empty scenario, and the same differentials.
    """
    rng = np.random.default_rng(7)
    warm, batch = scenario(rng, config)
    kept = model(config, dtype)
    every = model(config, dtype)
    for step in warm:
        kept.forward(step)
        every.forward(step)
    got = kept.forward(batch)
    want = every.forward_all_rows(batch)
    assert len(got) == len(want) == len(batch)
    for logits, rows in zip(got, want):
        assert logits.shape == (config.vocab_size,)
        if dtype == np.float32:
            np.testing.assert_allclose(logits, rows[-1], **FLOAT32_TOL)
        else:
            np.testing.assert_allclose(logits, rows[-1], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(kept.storage.k, every.storage.k)
    np.testing.assert_array_equal(kept.storage.v, every.storage.v)


class _LmHeadSpy(np.ndarray):
    """An LM head recording how many rows each product with it carries.
    The head multiplies as ``(lm_head.T @ x.T).T``; its transpose is a
    view of the same subclass sharing the record, and sees ``x.T``."""

    def __array_finalize__(self, obj):
        self.rows = getattr(obj, "rows", None)

    def __matmul__(self, xt):
        self.rows.append(xt.shape[1])
        return np.asarray(self) @ xt


def test_last_layer_mlp_and_lm_head_see_one_row_per_request(config, dtype):
    pruned = model(config, dtype, num_slots=64)
    seen = [[] for _ in pruned.layers]
    for layer, rows in zip(pruned.layers, seen):
        def spy(x, mlp=layer.mlp, rows=rows):
            rows.append(x.shape[0])
            return mlp(x)

        layer.mlp = spy
    head = pruned.lm_head.view(_LmHeadSpy)
    head.rows = []
    pruned.lm_head = head
    rng = np.random.default_rng(8)
    batch = [
        ForwardRequest(input_ids=_ids(rng, config, 7), context_slots=list(range(7))),
        ForwardRequest(input_ids=_ids(rng, config, 5), context_slots=list(range(10, 15))),
        ForwardRequest(input_ids=_ids(rng, config, 1), context_slots=[20]),
    ]
    pruned.forward(batch)
    assert seen[-1] == [len(batch)] and head.rows == [len(batch)]
    assert all(rows == [13] for rows in seen[:-1])
    pruned.forward_all_rows(batch)
    assert seen[-1] == [len(batch), 13] and head.rows == [len(batch), 13]


class TestDecodeRequests:
    """A batch of :class:`DecodeRequest` — the serving loop's generation
    step, its context named by block table — takes the packed decode
    path: positions, write slots, embeddings and RoPE angles come from
    the packed slot table."""

    def _conversations(self, config, dtype, prefix_len=3):
        """A fast and a reference model over one page pool, a shared
        prefix prefilled in both, and three prefilled conversations."""
        pool = PagePool(num_pages=32, page_size=4)
        fast, reference = paired_models(config, dtype, num_slots=pool.capacity_tokens)
        rng = np.random.default_rng(9)
        prefix = BlockTable(pool)
        prefix.append_tokens(prefix_len)
        prefix_slots = prefix.slots_array(0, prefix_len)
        tables = []
        batches = [[ForwardRequest(_ids(rng, config, prefix_len), prefix_slots)]]
        prefill = []
        for n in (4, 7, 5):
            table = BlockTable(pool)
            table.append_tokens(n)
            tables.append(table)
            prefill.append(
                ForwardRequest(
                    _ids(rng, config, n),
                    np.concatenate([prefix_slots, table.slots_array(0, n)]),
                    shared_prefix=prefix_len,
                )
            )
        batches.append(prefill)
        for batch in batches:
            fast.forward(batch)
            reference.forward(batch)
        return fast, reference, pool, tables, prefix_slots, rng

    def test_a_decode_batch_matches_the_reference(self, config, dtype):
        fast, reference, _, tables, prefix, rng = self._conversations(config, dtype)
        requests = [
            DecodeRequest(DecodeSlotSource(t, prefix)) for t in tables
        ]
        for _ in range(3):
            tokens = _ids(rng, config, len(tables))
            explicit = []
            for request, table, token in zip(requests, tables, tokens):
                table.append_tokens(1)
                request.token = int(token)
                explicit.append(
                    ForwardRequest(
                        [token],
                        np.concatenate([prefix, table.slots_array(0, table.length)]),
                        shared_prefix=len(prefix),
                    )
                )
            got = fast.forward(requests)
            want = reference.forward(explicit)
            assert got.shape == (len(tables), config.vocab_size)
            np.testing.assert_allclose(got, np.asarray(want), **tol(dtype))
        np.testing.assert_allclose(fast.storage.k, reference.storage.k, **tol(dtype))
        np.testing.assert_allclose(fast.storage.v, reference.storage.v, **tol(dtype))
        assert fast.decode_cache.stats["extended_rows"] == 2 * len(tables)

    def test_a_decode_batch_is_checked_like_a_forward_request(self, config, dtype):
        fast, reference, pool, tables, prefix, _ = self._conversations(config, dtype)
        source = DecodeSlotSource(tables[0], prefix)
        with pytest.raises(ValueError, match="one input token"):
            fast.forward([DecodeRequest(source, token=[1, 2])])
        empty = BlockTable(pool)
        with pytest.raises(ValueError, match="shorter than its context"):
            fast.forward([DecodeRequest(DecodeSlotSource(empty, prefix))])
        with pytest.raises(ValueError, match="packed decode cache"):
            reference.forward([DecodeRequest(source)])
