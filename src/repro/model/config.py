"""Model hyper-parameter configurations.

The four full-scale presets mirror Table 1 of the paper exactly, including
the paper's modification of Llama 2-13B to use 10 KV heads (grouped-query
attention with group size 4).  Tiny presets are provided for functional
tests, where real numpy tensors flow through the model.

Derived quantities used throughout the repository:

- ``kv_bytes_per_token``: bytes of K+V state one token occupies across all
  layers (the paper's §3.2 example: 0.78 MB/token for a 13B GPT-3 class
  model, which :func:`tests <tests.model.test_config>` verify);
- ``linear_flops_per_token``: FLOPs of all non-attention operators for one
  token through the whole model;
- ``attention_flops_per_token``: FLOPs of the score/aggregate attention
  computation for one token attending to a context of length ``l``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters for a decoder-only transformer.

    Attributes:
        name: human-readable model name.
        arch: ``"opt"`` (LayerNorm / learned positions / ReLU MLP) or
            ``"llama"`` (RMSNorm / RoPE / SwiGLU MLP).
        num_layers: number of transformer layers.
        hidden_size: model (embedding) dimension.
        num_heads: number of query attention heads.
        num_kv_heads: number of key/value heads (GQA when < num_heads).
        head_dim: per-head dimension.
        intermediate_size: MLP inner dimension (per branch for SwiGLU).
        vocab_size: vocabulary size.
        max_position: maximum supported context length.
        dtype_bytes: bytes per parameter / activation element (2 = fp16).
        num_gpus: tensor-parallel degree used in the paper's evaluation.
    """

    name: str
    arch: str
    num_layers: int
    hidden_size: int
    num_heads: int
    num_kv_heads: int
    head_dim: int
    intermediate_size: int
    vocab_size: int = 32000
    max_position: int = 16384
    dtype_bytes: int = 2
    num_gpus: int = 1

    def __post_init__(self) -> None:
        if self.arch not in ("opt", "llama"):
            raise ValueError(f"unknown arch {self.arch!r}; expected 'opt' or 'llama'")
        if self.num_heads % self.num_kv_heads != 0:
            raise ValueError(
                f"num_heads ({self.num_heads}) must be a multiple of "
                f"num_kv_heads ({self.num_kv_heads})"
            )
        if self.num_heads * self.head_dim != self.hidden_size:
            raise ValueError(
                f"num_heads * head_dim ({self.num_heads}*{self.head_dim}) "
                f"must equal hidden_size ({self.hidden_size})"
            )

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------

    @property
    def gqa_group_size(self) -> int:
        """Number of query heads sharing one KV head."""
        return self.num_heads // self.num_kv_heads

    @property
    def kv_dim(self) -> int:
        """Width of the K (or V) projection output."""
        return self.num_kv_heads * self.head_dim

    @property
    def kv_bytes_per_token_layer(self) -> int:
        """Bytes of K+V state one token occupies in a single layer."""
        return 2 * self.kv_dim * self.dtype_bytes

    @property
    def kv_bytes_per_token(self) -> int:
        """Bytes of K+V state one token occupies across all layers."""
        return self.num_layers * self.kv_bytes_per_token_layer

    @property
    def param_count(self) -> int:
        """Approximate parameter count (attention + MLP + embeddings)."""
        h = self.hidden_size
        attn = h * h + 2 * h * self.kv_dim + h * h  # Q, K, V, O projections
        if self.arch == "llama":
            mlp = 3 * h * self.intermediate_size  # gate, up, down
        else:
            mlp = 2 * h * self.intermediate_size  # up, down
        embed = self.vocab_size * h
        return self.num_layers * (attn + mlp) + 2 * embed

    @property
    def weight_bytes(self) -> int:
        """Total bytes of model weights."""
        return self.param_count * self.dtype_bytes

    # ------------------------------------------------------------------
    # Analytical FLOP counts (used by the roofline cost model)
    # ------------------------------------------------------------------

    def linear_flops_per_token(self) -> float:
        """FLOPs of all non-attention operators for one token (all layers).

        Counts the QKV projections, the attention output projection and the
        MLP; a matrix multiply of an ``n``-vector with an ``n x m`` weight
        costs ``2 n m`` FLOPs.  Normalisation and activation costs are
        negligible in comparison and omitted.
        """
        h = self.hidden_size
        proj = 2.0 * h * (h + 2 * self.kv_dim) + 2.0 * h * h
        if self.arch == "llama":
            mlp = 2.0 * 3 * h * self.intermediate_size
        else:
            mlp = 2.0 * 2 * h * self.intermediate_size
        return self.num_layers * (proj + mlp)

    def attention_flops_per_token(self, context_len: int) -> float:
        """FLOPs for one token attending to ``context_len`` KV-tokens.

        Two matrix-vector products per layer — scores (``Q K^T``) and
        aggregation (``softmax(A) V``) — each ``2 * hidden * context_len``
        FLOPs (query heads all participate regardless of GQA grouping).
        """
        return self.num_layers * 2.0 * 2.0 * self.hidden_size * context_len

    def __str__(self) -> str:
        return (
            f"{self.name} ({self.arch}, L={self.num_layers}, h={self.hidden_size}, "
            f"heads={self.num_heads}/{self.num_kv_heads}, gpus={self.num_gpus})"
        )


# ----------------------------------------------------------------------
# Table 1 presets
# ----------------------------------------------------------------------

OPT_13B = ModelConfig(
    name="OPT-13B",
    arch="opt",
    num_layers=40,
    hidden_size=5120,
    num_heads=40,
    num_kv_heads=40,
    head_dim=128,
    intermediate_size=4 * 5120,
    vocab_size=50272,
    num_gpus=1,
)

OPT_66B = ModelConfig(
    name="OPT-66B",
    arch="opt",
    num_layers=64,
    hidden_size=9216,
    num_heads=72,
    num_kv_heads=72,
    head_dim=128,
    intermediate_size=4 * 9216,
    vocab_size=50272,
    num_gpus=4,
)

# The paper reduces Llama 2-13B's KV heads from 40 to 10 (GQA group size 4).
LLAMA2_13B = ModelConfig(
    name="Llama 2-13B",
    arch="llama",
    num_layers=40,
    hidden_size=5120,
    num_heads=40,
    num_kv_heads=10,
    head_dim=128,
    intermediate_size=13824,
    vocab_size=32000,
    num_gpus=1,
)

LLAMA2_70B = ModelConfig(
    name="Llama 2-70B",
    arch="llama",
    num_layers=80,
    hidden_size=8192,
    num_heads=64,
    num_kv_heads=8,
    head_dim=128,
    intermediate_size=28672,
    vocab_size=32000,
    num_gpus=4,
)

PAPER_MODELS: Dict[str, ModelConfig] = {
    cfg.name: cfg for cfg in (OPT_13B, OPT_66B, LLAMA2_13B, LLAMA2_70B)
}


# ----------------------------------------------------------------------
# Tiny presets for functional (real-tensor) tests
# ----------------------------------------------------------------------

def tiny_opt_config(
    num_layers: int = 2,
    hidden_size: int = 32,
    num_heads: int = 4,
    vocab_size: int = 128,
) -> ModelConfig:
    """A miniature OPT-style config small enough for exhaustive numpy tests."""
    return ModelConfig(
        name="tiny-opt",
        arch="opt",
        num_layers=num_layers,
        hidden_size=hidden_size,
        num_heads=num_heads,
        num_kv_heads=num_heads,
        head_dim=hidden_size // num_heads,
        intermediate_size=4 * hidden_size,
        vocab_size=vocab_size,
        max_position=512,
    )


def tiny_llama_config(
    num_layers: int = 2,
    hidden_size: int = 32,
    num_heads: int = 4,
    num_kv_heads: int = 2,
    vocab_size: int = 128,
) -> ModelConfig:
    """A miniature Llama-style (GQA + RoPE + SwiGLU) config for tests."""
    return ModelConfig(
        name="tiny-llama",
        arch="llama",
        num_layers=num_layers,
        hidden_size=hidden_size,
        num_heads=num_heads,
        num_kv_heads=num_kv_heads,
        head_dim=hidden_size // num_heads,
        intermediate_size=3 * hidden_size,
        vocab_size=vocab_size,
        max_position=512,
    )
