"""Elementary neural-network layers in numpy.

Only what the two paper architectures need: LayerNorm (OPT) and RMSNorm
(Llama 2, [54]), ReLU and SiLU activations, and dense projections.  All
layers are pure functions over explicit weight arrays so the model can be
constructed deterministically from a seed and weights can be shared or
sharded without hidden state.

Every constructor takes the parameters' ``dtype``.  Random weights are
drawn from the float64 stream and rounded once to it, so a float32 model
holds exactly its float64 twin's weights rounded, and no layer carries a
float64 array that would upcast a float32 activation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def silu(x: np.ndarray) -> np.ndarray:
    """Sigmoid-weighted linear unit (SiLU / swish), used by Llama 2."""
    return x / (1.0 + np.exp(-x))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def scaled_normal(
    rng: np.random.Generator,
    shape: tuple,
    scale: float,
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """``rng.standard_normal(shape) * scale`` rounded once to ``dtype``.

    The draw is always float64, so the random stream (and with it every
    later draw) is the same whatever ``dtype`` is; the product is written
    straight into a ``dtype`` array, one pass, no float64 copy kept.
    """
    draw = rng.standard_normal(shape)
    return np.multiply(draw, scale, out=np.empty(shape, dtype), casting="same_kind")


@dataclass
class LayerNorm:
    """Standard layer normalisation with learned gain and bias."""

    gain: np.ndarray
    bias: np.ndarray
    eps: float = 1e-5

    @classmethod
    def identity(cls, dim: int, dtype: np.dtype = np.float64) -> "LayerNorm":
        return cls(gain=np.ones(dim, dtype), bias=np.zeros(dim, dtype))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mean) / np.sqrt(var + self.eps) * self.gain + self.bias


@dataclass
class RMSNorm:
    """Root-mean-square normalisation (no mean subtraction, no bias) [54]."""

    gain: np.ndarray
    eps: float = 1e-5

    @classmethod
    def identity(cls, dim: int, dtype: np.dtype = np.float64) -> "RMSNorm":
        return cls(gain=np.ones(dim, dtype))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        rms = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + self.eps)
        return x / rms * self.gain


@dataclass
class Linear:
    """Dense projection ``y = x W + b`` (weight stored input-major)."""

    weight: np.ndarray  # [in_dim, out_dim]
    bias: np.ndarray | None = None

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        in_dim: int,
        out_dim: int,
        with_bias: bool = True,
        scale: float = 0.0,
        dtype: np.dtype = np.float64,
    ) -> "Linear":
        """Gaussian init scaled for unit-variance activations, drawn in
        float64 and rounded once to ``dtype``."""
        if scale == 0.0:
            scale = 1.0 / np.sqrt(in_dim)
        weight = scaled_normal(rng, (in_dim, out_dim), scale, dtype)
        bias = np.zeros(out_dim, dtype) if with_bias else None
        return cls(weight=weight, bias=bias)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = x @ self.weight
        if self.bias is not None:
            y = y + self.bias
        return y


@dataclass
class OptMlp:
    """OPT's two-layer feed-forward network with ReLU."""

    up: Linear
    down: Linear

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        hidden: int,
        intermediate: int,
        dtype: np.dtype = np.float64,
    ) -> "OptMlp":
        return cls(
            up=Linear.init(rng, hidden, intermediate, dtype=dtype),
            down=Linear.init(rng, intermediate, hidden, dtype=dtype),
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.down(relu(self.up(x)))


@dataclass
class SwiGluMlp:
    """Llama 2's gated feed-forward network: ``down(silu(gate(x)) * up(x))``."""

    gate: Linear
    up: Linear
    down: Linear

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        hidden: int,
        intermediate: int,
        dtype: np.dtype = np.float64,
    ) -> "SwiGluMlp":
        def linear(in_dim: int, out_dim: int) -> Linear:
            return Linear.init(rng, in_dim, out_dim, with_bias=False, dtype=dtype)

        return cls(
            gate=linear(hidden, intermediate),
            up=linear(hidden, intermediate),
            down=linear(intermediate, hidden),
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.down(silu(self.gate(x)) * self.up(x))
