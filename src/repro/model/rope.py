"""Rotary positional embeddings (RoPE), as used by Llama 2.

RoPE rotates each (even, odd) coordinate pair of the query/key vectors by
an angle proportional to the token's absolute position, so relative offsets
appear as phase differences in the dot product.  Because the rotation is a
function of *absolute position*, cached K rows remain valid after being
swapped out and back in — position never changes — which is what lets
Pensieve reuse KV-tokens across requests without re-rotation.

The sin/cos tables depend only on the head dimension, the model's dtype
and its largest position, so a model builds them once
(:func:`rope_table`) and every forward indexes into them rather than
recomputing ``np.outer`` + trig per layer.  Angles and their sin/cos
are computed in float64 and rounded once to the table's dtype.  A
position at or past the table's height raises ``IndexError``, as a
learned position embedding does.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Llama 2's RoPE frequency base.
ROPE_BASE = 10000.0

#: ``(cos, sin)``, each ``[positions, head_dim // 2]``.
RopeTable = Tuple[np.ndarray, np.ndarray]


def rope_frequencies(head_dim: int) -> np.ndarray:
    """Per-pair inverse frequencies, shape ``[head_dim // 2]``."""
    if head_dim % 2 != 0:
        raise ValueError(f"head_dim must be even for RoPE, got {head_dim}")
    exponents = np.arange(0, head_dim, 2) / head_dim
    return ROPE_BASE ** (-exponents)


def rope_table(num_positions: int, head_dim: int, dtype: np.dtype) -> RopeTable:
    """``(cos, sin)`` of positions ``[0, num_positions)`` x frequencies,
    computed in float64 and rounded once to ``dtype``."""
    angles = np.arange(num_positions, dtype=np.float64)[:, None] * (
        rope_frequencies(head_dim)[None, :]
    )
    return (
        np.cos(angles).astype(dtype, copy=False),
        np.sin(angles).astype(dtype, copy=False),
    )


def rope_angles(table: RopeTable, positions: np.ndarray) -> RopeTable:
    """``(cos, sin)`` of every position's rotation angles, each shaped
    ``[tokens, 1, head_dim // 2]`` to broadcast over heads.

    Depends only on the positions, so a caller rotating several tensors
    at the same positions (every layer's q and k) gathers them once.
    """
    cos, sin = table
    return cos[positions][:, None, :], sin[positions][:, None, :]


def apply_rope(x: np.ndarray, positions: np.ndarray, table: RopeTable) -> np.ndarray:
    """Rotate ``x`` by its tokens' positions.

    Args:
        x: ``[tokens, heads, head_dim]`` query or key tensor.
        positions: ``[tokens]`` absolute positions.
        table: the model's :func:`rope_table`.

    Returns:
        The rotated tensor (same shape; input not modified).
    """
    if x.ndim != 3:
        raise ValueError(f"x must be [tokens, heads, head_dim], got {x.shape}")
    if positions.shape[0] != x.shape[0]:
        raise ValueError(
            f"positions ({positions.shape[0]}) must match tokens ({x.shape[0]})"
        )
    return rotate(x, *rope_angles(table, positions))


def rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate each (even, odd) coordinate pair of ``x`` by the angles
    :func:`rope_angles` returned for its rows (input not modified)."""
    x_even = x[..., 0::2]
    x_odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x_even * cos - x_odd * sin
    out[..., 1::2] = x_even * sin + x_odd * cos
    return out
