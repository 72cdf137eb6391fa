"""Rotary positional embeddings (RoPE), as used by Llama 2.

RoPE rotates each (even, odd) coordinate pair of the query/key vectors by
an angle proportional to the token's absolute position, so relative offsets
appear as phase differences in the dot product.  Because the rotation is a
function of *absolute position*, cached K rows remain valid after being
swapped out and back in — position never changes — which is what lets
Pensieve reuse KV-tokens across requests without re-rotation.

The sin/cos tables depend only on ``(head_dim, base, dtype)`` and the
largest position ever seen, so they are cached at module level and grown
on demand rather than rebuilt (``np.outer`` + trig) on every
:func:`apply_rope` call — the tables are read every layer of every
forward pass.  Angles and their sin/cos are always computed in float64
and rounded once to the table's dtype; :func:`apply_rope` rotates in the
dtype of its input, so a float32 query is never upcast.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

#: Module-level sin/cos tables keyed by ``(head_dim, base, dtype)``; each
#: value is ``(cos, sin)`` of shape ``[height, head_dim // 2]``, with
#: ``height > max_position``.
_TABLE_CACHE: Dict[Tuple[int, float, np.dtype], Tuple[np.ndarray, np.ndarray]] = {}

#: Initial table height; tables double until they cover the request.
_MIN_TABLE = 256


def rope_frequencies(head_dim: int, base: float = 10000.0) -> np.ndarray:
    """Per-pair inverse frequencies, shape ``[head_dim // 2]``."""
    if head_dim % 2 != 0:
        raise ValueError(f"head_dim must be even for RoPE, got {head_dim}")
    exponents = np.arange(0, head_dim, 2) / head_dim
    return base ** (-exponents)


def clear_rope_cache() -> None:
    """Drop all cached sin/cos tables (test isolation hook)."""
    _TABLE_CACHE.clear()


def _cos_sin(
    positions: np.ndarray, head_dim: int, base: float, dtype: np.dtype
) -> Tuple[np.ndarray, np.ndarray]:
    """``(cos, sin)`` of ``positions x frequencies``, ``[len, dim/2]``,
    computed in float64 and rounded once to ``dtype``."""
    freqs = rope_frequencies(head_dim, base)  # [dim/2]
    angles = positions[:, None].astype(np.float64) * freqs[None, :]
    return (
        np.cos(angles).astype(dtype, copy=False),
        np.sin(angles).astype(dtype, copy=False),
    )


def rope_tables(
    head_dim: int,
    base: float = 10000.0,
    max_position: int = 0,
    dtype: np.dtype = np.float64,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cached ``(cos, sin)`` tables covering positions ``[0, max_position]``.

    Tables are grown geometrically: a request beyond the current height
    rebuilds the entry at at least double its size, so amortised cost per
    call is O(1).  Entries are keyed by ``(head_dim, base, dtype)``, so a
    float32 and a float64 model in one process never share a table.  The
    returned arrays are shared — callers must not write to them.
    """
    key = (head_dim, float(base), np.dtype(dtype))
    entry = _TABLE_CACHE.get(key)
    if entry is None or entry[0].shape[0] <= max_position:
        height = _MIN_TABLE if entry is None else entry[0].shape[0]
        while height <= max_position:
            height *= 2
        entry = _cos_sin(np.arange(height), head_dim, base, key[2])
        _TABLE_CACHE[key] = entry
    return entry


def rope_angles(
    positions: np.ndarray,
    head_dim: int,
    base: float = 10000.0,
    dtype: np.dtype = np.float64,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(cos, sin)`` of every position's rotation angles in ``dtype``,
    each shaped ``[tokens, 1, head_dim // 2]`` to broadcast over heads.

    Depends only on the positions, so a caller rotating several tensors
    at the same positions (every layer's q and k) gathers them once.
    """
    if (
        positions.shape[0]
        and np.issubdtype(positions.dtype, np.integer)
        and int(positions.min()) >= 0
    ):
        max_position = int(positions.max())
        cos_table, sin_table = rope_tables(head_dim, base, max_position, dtype)
        return cos_table[positions][:, None, :], sin_table[positions][:, None, :]
    # Non-integer, negative, or empty positions bypass the cache; the
    # table only covers whole non-negative token positions.
    cos, sin = _cos_sin(positions, head_dim, base, dtype)
    return cos[:, None, :], sin[:, None, :]


def apply_rope(x: np.ndarray, positions: np.ndarray, base: float = 10000.0) -> np.ndarray:
    """Rotate ``x`` by its tokens' positions.

    Args:
        x: ``[tokens, heads, head_dim]`` query or key tensor.
        positions: ``[tokens]`` absolute positions.
        base: RoPE frequency base.

    Returns:
        The rotated tensor (same shape and dtype; input not modified).
    """
    if x.ndim != 3:
        raise ValueError(f"x must be [tokens, heads, head_dim], got {x.shape}")
    if positions.shape[0] != x.shape[0]:
        raise ValueError(
            f"positions ({positions.shape[0]}) must match tokens ({x.shape[0]})"
        )
    cos, sin = rope_angles(positions, x.shape[-1], base, x.dtype)
    return rotate(x, cos, sin)


def rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate each (even, odd) coordinate pair of ``x`` by the angles
    :func:`rope_angles` returned for its rows (input not modified)."""
    x_even = x[..., 0::2]
    x_odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x_even * cos - x_odd * sin
    out[..., 1::2] = x_even * sin + x_odd * cos
    return out
