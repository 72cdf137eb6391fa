"""Tests for elementary layers."""

import numpy as np
import pytest

from repro.model.layers import (
    LayerNorm,
    Linear,
    OptMlp,
    RMSNorm,
    SwiGluMlp,
    relu,
    silu,
    softmax,
)

DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])


class TestActivations:
    def test_relu(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(relu(x), [0.0, 0.0, 3.0])

    def test_silu_at_zero(self):
        assert silu(np.array([0.0]))[0] == 0.0

    @DTYPES
    def test_silu_is_the_textbook_formula_bit_for_bit(self, dtype):
        x = (np.random.default_rng(2).standard_normal((7, 33)) * 4).astype(dtype)
        got = silu(x[:, 1:])  # a strided input, as a column block
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, x[:, 1:] / (1.0 + np.exp(-x[:, 1:])))

    def test_silu_approaches_identity_for_large_x(self):
        assert silu(np.array([20.0]))[0] == pytest.approx(20.0, rel=1e-6)

    def test_softmax_sums_to_one(self):
        x = np.random.default_rng(0).standard_normal((3, 5))
        s = softmax(x)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0)

    def test_softmax_stable_for_large_inputs(self):
        s = softmax(np.array([1e4, 1e4 + 1.0]))
        assert np.all(np.isfinite(s))
        assert s[1] > s[0]


class TestNorms:
    def test_layernorm_zero_mean_unit_var(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 16)) * 7 + 3
        y = LayerNorm.identity(16)(x)
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)

    def test_layernorm_gain_bias(self):
        x = np.random.default_rng(2).standard_normal((2, 8))
        norm = LayerNorm(gain=np.full(8, 2.0), bias=np.full(8, 1.0))
        base = LayerNorm.identity(8)(x)
        np.testing.assert_allclose(norm(x), base * 2.0 + 1.0)

    def test_rmsnorm_unit_rms(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 16)) * 5
        y = RMSNorm.identity(16)(x)
        rms = np.sqrt((y * y).mean(axis=-1))
        np.testing.assert_allclose(rms, 1.0, atol=1e-3)

    @DTYPES
    def test_rmsnorm_is_the_np_mean_formulation_bit_for_bit(self, dtype):
        rng = np.random.default_rng(4)
        x = (rng.standard_normal((64, 48)) * 3).astype(dtype)
        norm = RMSNorm(gain=rng.standard_normal(48).astype(dtype))
        want = x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + norm.eps) * norm.gain
        got = norm(x)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    def test_rmsnorm_does_not_recenter(self):
        x = np.ones((1, 8)) * 4.0
        y = RMSNorm.identity(8)(x)
        # All-equal input stays all-equal (mean is NOT subtracted).
        np.testing.assert_allclose(y, 1.0, atol=1e-4)


class TestLinear:
    def test_matmul_with_bias(self):
        lin = Linear(weight=np.eye(3), bias=np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(
            lin(np.array([[1.0, 0.0, 0.0]])), [[2.0, 2.0, 3.0]]
        )

    def test_no_bias(self):
        lin = Linear(weight=np.eye(2) * 2)
        np.testing.assert_array_equal(lin(np.array([[3.0, 4.0]])), [[6.0, 8.0]])

    def test_init_shapes_and_determinism(self):
        a = Linear.init(np.random.default_rng(7), 8, 16)
        b = Linear.init(np.random.default_rng(7), 8, 16)
        assert a.weight.shape == (8, 16)
        np.testing.assert_array_equal(a.weight, b.weight)


    @DTYPES
    @pytest.mark.parametrize("rows", [1, 2, 7, 64])
    def test_fused_columns_equal_separate_projections(self, dtype, rows):
        rng = np.random.default_rng(8)
        parts = [Linear.init(rng, 16, width, dtype=dtype) for width in (16, 8, 8)]
        for part in parts:
            part.bias += rng.standard_normal(part.bias.shape).astype(dtype)
        fused = Linear.fuse(*parts)
        x = rng.standard_normal((rows, 16)).astype(dtype)
        out = fused(x)
        lo = 0
        for part in parts:
            hi = lo + part.weight.shape[1]
            view = fused.columns(lo, hi)
            assert np.shares_memory(view.weight, fused.weight)
            np.testing.assert_array_equal(view.weight, part.weight)
            np.testing.assert_array_equal(out[:, lo:hi], part(x))
            np.testing.assert_array_equal(view(x), part(x))
            lo = hi


class TestMlps:
    def test_opt_mlp_shapes(self):
        mlp = OptMlp.init(np.random.default_rng(0), 8, 32)
        out = mlp(np.random.default_rng(1).standard_normal((5, 8)))
        assert out.shape == (5, 8)

    def test_swiglu_mlp_shapes(self):
        mlp = SwiGluMlp.init(np.random.default_rng(0), 8, 24)
        out = mlp(np.random.default_rng(1).standard_normal((5, 8)))
        assert out.shape == (5, 8)

    def test_swiglu_has_no_biases(self):
        mlp = SwiGluMlp.init(np.random.default_rng(0), 8, 24)
        assert mlp.gate.bias is None
        assert mlp.up.bias is None
        assert mlp.down.bias is None

    @DTYPES
    @pytest.mark.parametrize("rows", [1, 8, 64])
    def test_swiglu_gate_up_is_one_fused_matmul(self, dtype, rows):
        """``gate`` and ``up`` are views of the stacked ``gate_up``
        weight, and the fused MLP's bits are the unfused formula's."""
        mlp = SwiGluMlp.init(np.random.default_rng(0), 8, 24, dtype)
        assert mlp.gate_up.weight.shape == (2, 8, 24)
        for view in (mlp.gate, mlp.up):
            assert np.shares_memory(view.weight, mlp.gate_up.weight)
        x = np.random.default_rng(1).standard_normal((rows, 8)).astype(dtype)
        gate = x @ mlp.gate.weight
        want = mlp.down(gate / (1.0 + np.exp(-gate)) * (x @ mlp.up.weight))
        got = mlp(x)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)
