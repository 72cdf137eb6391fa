"""Eviction policies (§4.3.1).

A policy is an :data:`~repro.kvcache.manager.EvictionScorer`: a callable
``(chunk, last_active, now) -> score``; the cache manager evicts candidate
chunks in **ascending** score order.  Because only the earliest chunk of
each conversation in a given tier is ever a candidate, front-to-back
ordering within a conversation is structural; the policy chooses *between*
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

With the disk tier enabled, the same score additionally chooses *which
tier* a chunk leaving the CPU lands in: :class:`TieredPlacementPolicy`
wraps any scorer and demotes a chunk to disk only when its retention
value clears a configurable floor (below it, the NVMe write is not worth
the rescue — the chunk recomputes more cheaply than it restores).  The
manager layers displacement on top: an approved chunk may still be
dropped if disk room can only be made by evicting higher-valued
residents.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.gpu.profiler import AttentionCostProfile
from repro.kvcache.chunks import Chunk, ChunkLocation


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

    def __call__(self, chunk: Chunk, last_active: float, now: float) -> float:
        idle = max(now - last_active, self.min_idle)
        # ``l`` is the context size the chunk attends to during
        # recomputation: everything up to and including the chunk itself.
        context_len = chunk.end
        cost = self._cost.get(context_len)
        if cost is None:
            cost = self._cost[context_len] = self.profile.recompute_cost(context_len)
        return cost / idle

    def __repr__(self) -> str:
        return f"RetentionValuePolicy(chunk_size={self.profile.chunk_size})"


class LruPolicy:
    """Least-recently-used at conversation granularity.

    The score is simply the conversation's last-active time: older
    conversations (smaller timestamps) evict first, and ties fall back to
    the manager's deterministic ``(conv_id, chunk index)`` ordering.
    """

    name = "lru"

    def __call__(self, chunk: Chunk, last_active: float, now: float) -> float:
        return last_active

    def __repr__(self) -> str:
        return "LruPolicy()"


class TieredPlacementPolicy:
    """Cross-tier extension of the retention score (disk tier, ROADMAP 3).

    Decides where a chunk leaving the CPU tier lands: ``DISK`` when its
    retention value ``V = Cost(s, l) / T`` is at least ``min_disk_value``,
    ``DROPPED`` otherwise.  The intuition mirrors §4.3.1: ``V`` prices
    what per-second rescue of the chunk is worth, so a floor on it is a
    floor on how valuable a chunk must be before the system spends NVMe
    write bandwidth (and disk capacity) keeping it restorable instead of
    recomputable.

    ``min_disk_value=0.0`` (the default) demotes everything the disk can
    hold — pure capacity extension; raising it makes the disk tier
    selective.  The manager applies this policy *per eviction decision*
    and separately enforces value-ordered displacement within the disk
    tier, so the full cross-tier ordering is: GPU ⊇ CPU ⊇ DISK by
    descending retention value, with DROPPED below the floor.

    Args:
        scorer: any eviction scorer (``(chunk, last_active, now) ->
            score``); typically the same :class:`RetentionValuePolicy`
            instance the manager evicts with, so both decisions read one
            consistent value.
        min_disk_value: retention-value floor for disk placement.
    """

    name = "tiered-placement"

    def __init__(
        self,
        scorer: Callable[[Chunk, float, float], float],
        min_disk_value: float = 0.0,
    ) -> None:
        if min_disk_value < 0.0:
            raise ValueError(
                f"min_disk_value must be non-negative, got {min_disk_value}"
            )
        self.scorer = scorer
        self.min_disk_value = min_disk_value

    def __call__(
        self, chunk: Chunk, last_active: float, now: float
    ) -> ChunkLocation:
        score = self.scorer(chunk, last_active, now)
        if score >= self.min_disk_value:
            return ChunkLocation.DISK
        return ChunkLocation.DROPPED

    def __repr__(self) -> str:
        return (
            f"TieredPlacementPolicy(scorer={self.scorer!r}, "
            f"min_disk_value={self.min_disk_value})"
        )
