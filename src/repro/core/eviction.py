"""Eviction policies (§4.3.1).

A policy is an :data:`~repro.kvcache.manager.EvictionScorer`: a callable
``(end, last_active, now) -> score``, where ``end`` is one past the
candidate chunk's last token; the cache manager evicts candidate chunks in
**ascending** score order.  Because only the earliest chunk of each
conversation in a given tier is ever a candidate, front-to-back ordering
within a conversation is structural; the policy chooses *between*
conversations.

Two scoring policies are provided:

- :class:`RetentionValuePolicy` — Pensieve's policy.  The retention value
  of a chunk is ``V = Cost(s, l) / T`` where ``Cost`` is the (profiled,
  interpolated) cost of recomputing the chunk with its attended context of
  size ``l`` and ``T`` is the time since the owning conversation was last
  active.  Low-value chunks (cheap to recompute, long-idle conversation)
  are evicted first.
- :class:`LruPolicy` — the classic baseline of Figure 14: evict the least
  recently active conversation first, ignoring recomputation cost.

The same score orders the CPU tier: under host-memory pressure its
lowest-scored chunks are dropped for recomputation
(:meth:`~repro.kvcache.manager.TieredCacheManager.drop_from_cpu`).
"""

from __future__ import annotations

from typing import Dict

from repro.gpu.profiler import AttentionCostProfile


class RetentionValuePolicy:
    """Pensieve's cost-over-idle-time retention score.

    Args:
        profile: offline-profiled attention cost table
            (:class:`~repro.gpu.profiler.AttentionCostProfile`).
        min_idle: floor on the idle time ``T`` so a just-deactivated
            conversation has a finite (large) retention value instead of a
            division by zero.
    """

    name = "retention-value"

    def __init__(self, profile: AttentionCostProfile, min_idle: float = 1e-3) -> None:
        if min_idle <= 0.0:
            raise ValueError(f"min_idle must be positive, got {min_idle}")
        self.profile = profile
        self.min_idle = min_idle
        # ``profile.recompute_cost`` by context length, filled on first
        # use: the profile is immutable and eviction scores the same few
        # thousand lengths (at most one per token of the longest context)
        # millions of times.
        self._cost: Dict[int, float] = {}

    def __call__(self, end: int, last_active: float, now: float) -> float:
        # ``max(now - last_active, min_idle)`` without the builtin call:
        # the same float either way.
        idle = now - last_active
        if idle < self.min_idle:
            idle = self.min_idle
        # ``l`` is the context size the chunk attends to during
        # recomputation: everything up to and including the chunk itself,
        # which ends at ``end``.
        try:
            cost = self._cost[end]
        except KeyError:
            cost = self._cost[end] = self.profile.recompute_cost(end)
        return cost / idle

    def __repr__(self) -> str:
        return f"RetentionValuePolicy(chunk_size={self.profile.chunk_size})"


class LruPolicy:
    """Least-recently-used at conversation granularity.

    The score is simply the conversation's last-active time: older
    conversations (smaller timestamps) evict first, and ties fall back to
    the manager's deterministic ``conv_id`` ordering.
    """

    name = "lru"

    def __call__(self, end: int, last_active: float, now: float) -> float:
        return last_active

    def __repr__(self) -> str:
        return "LruPolicy()"
