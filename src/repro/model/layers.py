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
    """Sigmoid-weighted linear unit (SiLU / swish), used by Llama 2:
    ``x / (1 + exp(-x))``, computed in one scratch array."""
    out = np.negative(x)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(x, out, out=out)


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
        # np.mean's ufuncs without its Python wrapper.  np.mean divides
        # the same sum by an intp count in float64 and rounds to x's
        # dtype; a float64 quotient rounded to float32 is the float32
        # quotient, so the bits are the same.
        mean_square = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1]
        return x / np.sqrt(mean_square + self.eps) * self.gain


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
        dtype: np.dtype = np.float64,
    ) -> "Linear":
        """Gaussian init scaled by ``1/sqrt(in_dim)`` for unit-variance
        activations, drawn in float64 and rounded once to ``dtype``."""
        weight = scaled_normal(rng, (in_dim, out_dim), 1.0 / np.sqrt(in_dim), dtype)
        bias = np.zeros(out_dim, dtype) if with_bias else None
        return cls(weight=weight, bias=bias)

    @classmethod
    def fuse(cls, *parts: "Linear") -> "Linear":
        """One projection computing ``parts`` side by side: their weights
        (and biases) concatenated along the output axis, so one matmul
        yields every part's output as a column block."""
        weight = np.concatenate([p.weight for p in parts], axis=1)
        biases = [p.bias for p in parts if p.bias is not None]
        return cls(weight=weight, bias=np.concatenate(biases) if biases else None)

    def columns(self, lo: int, hi: int) -> "Linear":
        """The projection onto output columns ``[lo, hi)``: views of this
        weight and bias, no copy."""
        bias = None if self.bias is None else self.bias[lo:hi]
        return Linear(weight=self.weight[:, lo:hi], bias=bias)

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
    """Llama 2's gated feed-forward network: ``down(silu(gate(x)) * up(x))``,
    with gate and up computed by one projection whose weight stacks
    theirs, ``[2, hidden, intermediate]``: one matmul yields ``[2, rows,
    intermediate]``, whose two halves are contiguous, so the activation
    and the product read no strided column block."""

    gate_up: Linear
    down: Linear

    @property
    def gate(self) -> Linear:
        """The gate projection: a view of ``gate_up``'s weight."""
        return Linear(weight=self.gate_up.weight[0])

    @property
    def up(self) -> Linear:
        """The up projection: a view of ``gate_up``'s weight."""
        return Linear(weight=self.gate_up.weight[1])

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

        # Gate, up, down: the seed's stream order; the stacked matrix is
        # the only copy kept.
        gate, up = linear(hidden, intermediate), linear(hidden, intermediate)
        gate_up = Linear(weight=np.stack([gate.weight, up.weight]))
        return cls(gate_up=gate_up, down=linear(intermediate, hidden))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        gate, up = self.gate_up(x)
        hidden = silu(gate)
        hidden *= up
        return self.down(hidden)
