"""Token sampling strategies.

The functional serving layer defaults to greedy decoding (argmax), which
the correctness tests rely on; this module adds the standard stochastic
strategies — temperature scaling, top-k truncation and nucleus (top-p)
filtering — behind one seeded, deterministic interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.model.layers import softmax


@dataclass(frozen=True)
class SamplingParams:
    """Decoding configuration.

    Attributes:
        temperature: logit divisor; ``0`` means greedy (argmax).
        top_k: keep only the ``k`` highest-probability tokens (0 = all).
        top_p: nucleus sampling — keep the smallest probability mass
            prefix summing to at least ``top_p`` (1.0 = all).
    """

    temperature: float = 0.0
    top_k: int = 0
    top_p: float = 1.0

    def __post_init__(self) -> None:
        if self.temperature < 0.0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {self.top_k}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")

    @property
    def is_greedy(self) -> bool:
        return self.temperature == 0.0


GREEDY = SamplingParams()


def sample_token(
    logits: np.ndarray,
    params: SamplingParams = GREEDY,
    rng: Optional[np.random.Generator] = None,
) -> int:
    """Draw one token id from ``logits`` under ``params``.

    Args:
        logits: ``[vocab]`` unnormalised scores.
        params: sampling configuration.
        rng: random generator; required unless greedy.

    Returns:
        The sampled token id.

    Raises:
        ValueError: if a stochastic strategy is requested without ``rng``.
    """
    if logits.ndim != 1:
        raise ValueError(f"logits must be a vector, got shape {logits.shape}")
    if params.is_greedy:
        return int(np.argmax(logits))
    if rng is None:
        raise ValueError("stochastic sampling requires an rng")

    scaled = logits / params.temperature
    probs = softmax(scaled)

    if params.top_k > 0 and params.top_k < probs.shape[0]:
        cutoff = np.partition(probs, -params.top_k)[-params.top_k]
        probs = np.where(probs >= cutoff, probs, 0.0)

    if params.top_p < 1.0:
        order = np.argsort(probs)[::-1]
        sorted_probs = probs[order]
        cumulative = np.cumsum(sorted_probs)
        # Keep the minimal prefix reaching top_p (always at least one).
        keep = cumulative - sorted_probs < params.top_p
        mask = np.zeros_like(probs, dtype=bool)
        mask[order[keep]] = True
        probs = np.where(mask, probs, 0.0)

    total = probs.sum()
    if total <= 0.0:  # numerical corner: fall back to greedy
        return int(np.argmax(logits))
    probs = probs / total
    return int(rng.choice(probs.shape[0], p=probs))


def sample_tokens(
    logits: np.ndarray,
    params: SamplingParams = GREEDY,
    rng: Optional[np.random.Generator] = None,
) -> List[int]:
    """:func:`sample_token` of every row of ``[n, vocab]`` ``logits``, in
    row order.  Greedy sampling is one ``argmax`` over the batch, which
    picks each row's first maximum like the per-row call."""
    if params.is_greedy:
        return np.argmax(logits, axis=1).tolist()
    return [sample_token(row, params, rng) for row in logits]
