"""Arrival processes and think-time sampling (§6.1).

The paper simulates request arrivals with a Poisson process and user think
time — "the time taken for users to generate the next conversation turn" —
with an exponential distribution of varying mean (60 s by default, swept
up to 600 s in Figure 15).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np


def poisson_arrivals(
    rng: np.random.Generator, rate: float, count: int, start: float = 0.0
) -> List[float]:
    """Arrival times of a homogeneous Poisson process.

    Args:
        rng: random generator.
        rate: events per second (must be positive and finite).
        count: number of arrivals to draw.
        start: time of reference (first arrival is after ``start``).

    Returns:
        ``count`` strictly increasing timestamps.
    """
    if not 0 < rate < math.inf:
        raise ValueError(f"rate must be positive and finite, got {rate}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    gaps = rng.exponential(1.0 / rate, size=count)
    return list(start + np.cumsum(gaps))


def exponential_think_times(
    rng: np.random.Generator, mean: float, count: int
) -> List[float]:
    """Per-turn user think times, exponentially distributed."""
    if not 0 <= mean < math.inf:
        raise ValueError(
            f"think-time mean must be non-negative and finite, got {mean}"
        )
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return []
    if mean == 0:
        return [0.0] * count
    return list(rng.exponential(mean, size=count))
