"""End-to-end tests for the paged numpy transformer.

The central claims verified here are the correctness claims behind
Pensieve's design: serving a conversation *statefully* — across turns,
through arbitrary physical scattering, with dropped prefixes recomputed —
produces logits identical to a stateless from-scratch run.

Every model test runs at both compute dtypes (``tests/model/conftest.py``):
the float64 cases to 1e-9, the float32 cases to :data:`FLOAT32_TOL`.  The
two runs compared sum in different orders (another batch, another row
count, a decode step against a prefill), so they agree to rounding, not
bitwise.
"""

import dataclasses

import numpy as np
import pytest

from repro.kvcache import KVStorage
from repro.model import tiny_llama_config, tiny_opt_config
from repro.model.layers import Linear, scaled_normal
from repro.model.transformer import ForwardRequest, PagedTransformer

from tests.model.conftest import CASES

#: The largest float32 gap measured across this module's comparisons is
#: 1.04e-7 absolute, on logits of magnitude up to 0.33; ~10x room.
FLOAT32_TOL = dict(rtol=0, atol=1e-6)


def tol(dtype):
    """The bound two summation orders of one model must agree to."""
    return FLOAT32_TOL if dtype == np.float32 else dict(rtol=1e-9, atol=1e-9)


#: A test that does not depend on the model's dtype runs once per
#: architecture, under its float64 id.
per_arch = pytest.mark.parametrize("case", CASES[:2], indirect=True)


def make_model(config, dtype, num_slots=256, seed=0):
    storage = KVStorage(config, num_slots=num_slots, dtype=dtype)
    return PagedTransformer(config, storage, seed=seed), storage


def prefill_from_scratch(config, dtype, token_ids, slots, seed=0):
    """Reference: a fresh model instance prefilling the whole sequence."""
    model, _ = make_model(config, dtype, seed=seed)
    request = ForwardRequest(input_ids=token_ids, context_slots=slots)
    return model.forward_all_rows([request])[0]


class TestBasicForward:
    def test_prefill_shapes(self, config, dtype):
        model, _ = make_model(config, dtype)
        tokens = np.arange(10) % config.vocab_size
        request = ForwardRequest(input_ids=tokens, context_slots=list(range(10)))
        logits = model.forward_all_rows([request])[0]
        assert logits.shape == (10, config.vocab_size)
        assert model.forward([request])[0].shape == (config.vocab_size,)

    def test_decode_step_shape(self, config, dtype):
        model, _ = make_model(config, dtype)
        prefill = ForwardRequest(input_ids=[1, 2, 3], context_slots=[0, 1, 2])
        model.forward([prefill])
        decode = ForwardRequest(input_ids=[4], context_slots=[0, 1, 2, 3])
        logits = model.forward([decode])[0]
        assert logits.shape == (config.vocab_size,)

    def test_deterministic(self, config, dtype):
        tokens = np.arange(8)
        a = prefill_from_scratch(config, dtype, tokens, list(range(8)))
        b = prefill_from_scratch(config, dtype, tokens, list(range(8)))
        np.testing.assert_array_equal(a, b)

    def test_empty_batch(self, config, dtype):
        model, _ = make_model(config, dtype)
        assert model.forward([]) == []
        assert model.forward_all_rows([]) == []


def parameters(model):
    """``(name, array)`` of every parameter, in construction order."""

    def walk(name, value):
        if isinstance(value, np.ndarray):
            yield name, value
        elif dataclasses.is_dataclass(value):
            for field in dataclasses.fields(value):
                yield from walk(f"{name}.{field.name}", getattr(value, field.name))

    yield from walk("embedding", model.embedding)
    yield from walk("pos_embedding", model.pos_embedding)
    for i, layer in enumerate(model.layers):
        yield from walk(f"layers.{i}", layer)
    yield from walk("final_norm", model.final_norm)


class TestOneDtype:
    @per_arch
    def test_float32_parameters_are_the_float64_ones_rounded(self, config):
        """One seed, one float64 stream: the float32 model holds exactly
        its float64 twin's parameters rounded once, and the tied LM head
        stays a view of the embedding at both dtypes."""
        double, _ = make_model(config, np.float64)
        single, _ = make_model(config, np.float32)
        assert (double.dtype, single.dtype) == (np.float64, np.float32)
        pairs = list(zip(parameters(double), parameters(single)))
        assert len(pairs) == len(list(parameters(single))) > 4 * len(single.layers)
        for (name, want), (name32, got) in pairs:
            assert name == name32
            assert want.dtype == np.float64 and got.dtype == np.float32, name
            np.testing.assert_array_equal(got, want.astype(np.float32), err_msg=name)
        for model in (double, single):
            assert model.lm_head.base is model.embedding

    def test_logits_and_kv_have_the_storage_dtype(self, config, dtype):
        model, storage = make_model(config, dtype)
        request = ForwardRequest(input_ids=[1, 2, 3], context_slots=[0, 1, 2])
        assert model.forward_all_rows([request])[0].dtype == dtype
        assert model.forward([request])[0].dtype == dtype
        assert storage.k.dtype == storage.v.dtype == dtype


class TestFusedProjections:
    def test_fused_blocks_are_the_parameters_drawn_in_stream_order(
        self, config, dtype
    ):
        """Each layer draws MLP, q, k, v, o from the seed's stream, as the
        unfused model did.  Every column block of the fused QKV (and
        SwiGLU gate-up) matrix is the parameter drawn for that
        projection, and every per-projection weight kept is a view of a
        fused matrix, so the weights are stored once."""
        model, _ = make_model(config, dtype, seed=3)
        rng = np.random.default_rng(3)
        h, kv, inter = config.hidden_size, config.kv_dim, config.intermediate_size
        opt = config.arch == "opt"
        want = scaled_normal(rng, (config.vocab_size, h), 0.02, dtype)
        np.testing.assert_array_equal(model.embedding, want)
        if opt:
            want = scaled_normal(rng, (config.max_position, h), 0.02, dtype)
            np.testing.assert_array_equal(model.pos_embedding, want)

        def draw(in_dim, out_dim):
            return Linear.init(rng, in_dim, out_dim, with_bias=opt, dtype=dtype)

        def assert_same(got, want):
            np.testing.assert_array_equal(got.weight, want.weight)
            if opt:
                np.testing.assert_array_equal(got.bias, want.bias)
            else:
                assert got.bias is None

        for layer in model.layers:
            mlp = layer.mlp
            if opt:
                assert_same(mlp.up, draw(h, inter))
            else:
                assert_same(mlp.gate, draw(h, inter))
                assert_same(mlp.up, draw(h, inter))
                for view in (mlp.gate, mlp.up):
                    assert np.shares_memory(view.weight, mlp.gate_up.weight)
            assert_same(mlp.down, draw(inter, h))
            qkv = layer.qkv_proj
            assert qkv.weight.shape == (h, h + 2 * kv)
            for (lo, hi), part in zip(
                ((0, h), (h, h + kv), (h + kv, h + 2 * kv)),
                (draw(h, h), draw(h, kv), draw(h, kv)),
            ):
                assert_same(qkv.columns(lo, hi), part)
            assert_same(layer.q_proj, qkv.columns(0, h))
            assert_same(layer.kv_proj, qkv.columns(h, h + 2 * kv))
            for view in (layer.q_proj, layer.kv_proj):
                assert np.shares_memory(view.weight, qkv.weight)
            assert_same(layer.o_proj, draw(h, h))
        assert model.lm_head.base is model.embedding


class TestStatefulEqualsStateless:
    def test_two_turn_conversation_matches_from_scratch(self, config, dtype):
        """Turn 1 prefill + turn 2 prefill reusing cache == single
        prefill of the concatenated sequence."""
        rng = np.random.default_rng(5)
        turn1 = rng.integers(0, config.vocab_size, size=9)
        turn2 = rng.integers(0, config.vocab_size, size=6)
        full = np.concatenate([turn1, turn2])
        slots = list(rng.permutation(256)[:15])

        expected = prefill_from_scratch(config, dtype, full, slots)

        model, _ = make_model(config, dtype)
        model.forward(
            [ForwardRequest(input_ids=turn1, context_slots=slots[:9])]
        )
        logits = model.forward_all_rows(
            [ForwardRequest(input_ids=turn2, context_slots=slots)]
        )[0]
        np.testing.assert_allclose(logits, expected[9:], **tol(dtype))

    def test_decode_matches_prefill_logits(self, config, dtype):
        """Generating token-by-token yields the same next-token logits as
        prefilling the same prefix in one shot."""
        rng = np.random.default_rng(6)
        tokens = rng.integers(0, config.vocab_size, size=7)
        slots = list(rng.permutation(64)[:7])
        expected = prefill_from_scratch(config, dtype, tokens, slots)

        model, _ = make_model(config, dtype)
        model.forward(
            [ForwardRequest(input_ids=tokens[:3], context_slots=slots[:3])]
        )
        for i in range(3, 7):
            logits = model.forward(
                [
                    ForwardRequest(
                        input_ids=tokens[i : i + 1], context_slots=slots[: i + 1]
                    )
                ]
            )[0]
            np.testing.assert_allclose(logits, expected[i], **tol(dtype))

    def test_physical_scattering_is_invisible(self, config, dtype):
        """Same logical sequence at two different physical layouts gives
        identical logits."""
        rng = np.random.default_rng(7)
        tokens = rng.integers(0, config.vocab_size, size=12)
        a = prefill_from_scratch(config, dtype, tokens, list(range(12)))
        b = prefill_from_scratch(config, dtype, tokens, list(rng.permutation(200)[:12]))
        np.testing.assert_allclose(a, b, **tol(dtype))

    def test_swap_round_trip_preserves_logits(self, config, dtype):
        """Simulate swap-out/swap-in: copy KV rows to a host buffer, move
        them to different slots, and continue decoding — logits must match
        an uninterrupted run."""
        rng = np.random.default_rng(8)
        tokens = rng.integers(0, config.vocab_size, size=10)
        slots = list(range(10))

        # Uninterrupted reference.
        model_ref, _ = make_model(config, dtype)
        model_ref.forward(
            [ForwardRequest(input_ids=tokens[:9], context_slots=slots[:9])]
        )
        expected = model_ref.forward(
            [ForwardRequest(input_ids=tokens[9:], context_slots=slots)]
        )[0]

        # Interrupted run: after prefill, evict rows 0..4 to "CPU" and
        # restore them into different physical slots.
        model, storage = make_model(config, dtype)
        model.forward(
            [ForwardRequest(input_ids=tokens[:9], context_slots=slots[:9])]
        )
        host_k, host_v = storage.read_all_layers(slots[:5])
        storage.k[:, slots[:5]] = 0.0  # slots handed to someone else
        storage.v[:, slots[:5]] = 0.0
        new_slots = list(range(100, 105))
        storage.write_slots_stacked([new_slots], [(host_k, host_v)])
        moved = new_slots + slots[5:]
        logits = model.forward(
            [ForwardRequest(input_ids=tokens[9:], context_slots=moved)]
        )[0]
        np.testing.assert_allclose(logits, expected, **tol(dtype))


class TestDroppedPrefixRecompute:
    def test_recomputed_prefix_matches_from_scratch(self, config, dtype):
        """Figure 8: dropped leading tokens are recomputed alongside the
        new prompt (two disconnected query ranges) while the middle comes
        from cache — final logits equal the stateless run."""
        rng = np.random.default_rng(9)
        dropped, cached, prompt = 4, 6, 5
        total = dropped + cached + prompt
        tokens = rng.integers(0, config.vocab_size, size=total)
        slots = list(rng.permutation(128)[:total])

        expected = prefill_from_scratch(config, dtype, tokens, slots)

        model, storage = make_model(config, dtype)
        # Turn 1 populated the full prefix (dropped + cached)...
        model.forward(
            [
                ForwardRequest(
                    input_ids=tokens[: dropped + cached],
                    context_slots=slots[: dropped + cached],
                )
            ]
        )
        # ...then the leading ``dropped`` tokens were discarded.
        storage.k[:, slots[:dropped]] = 0.0
        storage.v[:, slots[:dropped]] = 0.0
        # New physical homes for the recomputed prefix.
        new_prefix_slots = list(range(120, 120 + dropped))
        context = new_prefix_slots + slots[dropped:]
        request = ForwardRequest(
            input_ids=np.concatenate([tokens[:dropped], tokens[dropped + cached:]]),
            context_slots=context,
            dropped=dropped,
        )
        logits = model.forward_all_rows([request])[0]
        # The last ``prompt`` rows are the new prompt's logits.
        np.testing.assert_allclose(
            logits[dropped:], expected[dropped + cached:], **tol(dtype)
        )
        # And the recomputed prefix reproduces its original logits too.
        np.testing.assert_allclose(
            logits[:dropped], expected[:dropped], **tol(dtype)
        )

    def test_all_input_dropped_keeps_the_prefix_row(self, config, dtype):
        """A request whose input is entirely a recomputed prefix, with a
        cached tail after it: its last input row sits at
        ``dropped - 1``, not at the end of the context, so its
        next-token logits must not see the cached tail.  A last-layer
        query placed at ``total_context - 1`` fails this."""
        rng = np.random.default_rng(11)
        dropped, cached = 5, 7
        tokens = rng.integers(0, config.vocab_size, size=dropped + cached)
        slots = list(rng.permutation(128)[: dropped + cached])
        expected = prefill_from_scratch(config, dtype, tokens, slots)

        model, storage = make_model(config, dtype)
        model.forward([ForwardRequest(input_ids=tokens, context_slots=slots)])
        storage.k[:, slots[:dropped]] = 0.0
        storage.v[:, slots[:dropped]] = 0.0
        context = list(range(120, 120 + dropped)) + slots[dropped:]
        request = ForwardRequest(
            input_ids=tokens[:dropped], context_slots=context, dropped=dropped
        )
        (logits,) = model.forward([request])
        np.testing.assert_allclose(
            logits, expected[dropped - 1], **tol(dtype)
        )


class TestUnifiedBatching:
    def test_mixed_phase_batch_equals_separate_execution(self, config, dtype):
        """One batch mixing a prefill request and a decode request gives
        the same per-request logits as running them in isolation (§4.2)."""
        rng = np.random.default_rng(10)
        pre_tokens = rng.integers(0, config.vocab_size, size=6)
        dec_history = rng.integers(0, config.vocab_size, size=4)
        dec_token = rng.integers(0, config.vocab_size, size=1)

        # Isolated runs.
        model_a, _ = make_model(config, dtype)
        expected_pre = model_a.forward_all_rows(
            [ForwardRequest(input_ids=pre_tokens, context_slots=list(range(6)))]
        )[0]
        model_b, _ = make_model(config, dtype)
        model_b.forward(
            [ForwardRequest(input_ids=dec_history, context_slots=list(range(10, 14)))]
        )
        expected_dec = model_b.forward_all_rows(
            [ForwardRequest(input_ids=dec_token, context_slots=list(range(10, 15)))]
        )[0]

        # Unified batch.
        model, _ = make_model(config, dtype)
        model.forward(
            [ForwardRequest(input_ids=dec_history, context_slots=list(range(10, 14)))]
        )
        outs = model.forward_all_rows(
            [
                ForwardRequest(input_ids=pre_tokens, context_slots=list(range(6))),
                ForwardRequest(input_ids=dec_token, context_slots=list(range(10, 15))),
            ]
        )
        np.testing.assert_allclose(outs[0], expected_pre, **tol(dtype))
        np.testing.assert_allclose(outs[1], expected_dec, **tol(dtype))


class TestValidation:
    @per_arch
    def test_too_many_input_tokens(self, config):
        with pytest.raises(ValueError):
            ForwardRequest(input_ids=[1, 2, 3], context_slots=[0, 1])

    @per_arch
    def test_bad_dropped(self, config):
        with pytest.raises(ValueError):
            ForwardRequest(input_ids=[1, 2], context_slots=[0, 1, 2], dropped=3)

    @per_arch
    def test_no_input_tokens(self, config):
        with pytest.raises(ValueError):
            ForwardRequest(input_ids=[], context_slots=[0, 1])

    @per_arch
    def test_positions_length_mismatch(self, config):
        with pytest.raises(ValueError):
            ForwardRequest(
                input_ids=[1, 2],
                context_slots=[0, 1],
                positions=np.array([0]),
            )

    def test_storage_mismatch_rejected(self):
        opt = tiny_opt_config()
        llama = tiny_llama_config()
        storage = KVStorage(opt, num_slots=16)
        with pytest.raises(ValueError):
            PagedTransformer(llama, storage)
