"""Tiered (GPU/CPU) KV-cache manager.

The manager owns all token-level accounting for every tier and implements
the mechanics of Pensieve's cache design:

- **token-chunk eviction** in ascending score order under a pluggable
  eviction policy (§4.3.1; policies live in :mod:`repro.core.eviction`);
- **ahead-of-time swap-out** with lazy reclamation (§4.3.2): chunks are
  *copied* to the CPU tier (state ``GPU_CPU``) when free GPU space falls
  below a threshold, and their GPU slots are only truly handed over when an
  allocation needs them;
- **CPU-tier dropping** under CPU memory pressure: a chunk leaving the
  CPU is dropped for §4.3.4 recomputation;
- **restore planning** (:class:`CachePlan`): given a returning
  conversation, compute exactly which tokens are GPU hits, which must be
  swapped in from the CPU, and which must be recomputed — the Figure 5
  decomposition.

The manager is deliberately time-free: it never talks to the PCIe link
or the clock.  Engines ask it *what* to move and separately model
*how long* the movement takes, which lets the identical bookkeeping drive
both the functional layer (real numpy tensors) and the performance
simulation.

Implementation note: the serving simulation calls the accounting
properties on every scheduling round and evicts on most of them, so both
are incremental.  Tier totals are counters (O(1) reads), and a
conversation's cached state is its length and three chunk boundaries
(:class:`~repro.kvcache.chunks.ConversationCache`): an eviction advances
one boundary past the location's first chunk
(:meth:`TieredCacheManager._advance`); a front-drop, a restore or a
suspension sets several (:meth:`TieredCacheManager._relayout`).  Either
hands each run of chunks that changed location to one
:meth:`TieredCacheManager._move`, which keeps the counters and ``stats``
exact by the run's token count and tells the observer chunk by chunk,
front to back.  Per location the manager keeps its *holders*, the
conversations with a chunk there.

Every eviction is one pass of :meth:`TieredCacheManager._evict`, a
budgeted loop that draws victims, applies the caller's step and traces
each one.  It draws from :meth:`TieredCacheManager._victims`, which
scores each holder's first chunk once, heapifies them, and after each
victim pushes only that conversation's next chunk: O(N + k log N) for k
victims among N cached conversations, and one CPU stream serves a whole
``swap_out`` however often its copies find the CPU tier full.  Growth
has one method, :meth:`~TieredCacheManager.append_tokens`: one decode
step of a batch of pinned conversations, one token each, all or nothing.
It checks every tail and the step's deficit before anything moves, and
reclaims that deficit through one ``GPU_CPU`` stream scored at the
caller's ``now`` (the iteration's clock, the eviction time of §4.3.1);
:meth:`~TieredCacheManager.commit_restore` makes its room the same way.
:meth:`_audit` re-derives the counters and the holders from the
boundaries and is exercised by the test suite.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.faults.plan import FaultCounters, FaultPlan, FaultSite
from repro.kvcache.chunks import LAYOUT, ChunkLocation, ConversationCache
from repro.obs.tracer import Tracer

#: Eviction granularity in tokens (§4.3: 32-token chunks); the default of
#: every constructor that takes a ``chunk_size``.
CHUNK_SIZE = 32

#: Eviction scorer: ``(end, last_active, now) -> score``, where ``end`` is
#: one past the candidate chunk's last token.  Chunks are evicted in
#: ascending score order (low retention value goes first).
EvictionScorer = Callable[[int, float, float], float]

class CacheCapacityError(RuntimeError):
    """Raised when an operation cannot fit in the configured tiers."""


@dataclass
class CachePlan:
    """Placement plan for a returning (or new) request's context.

    Token counts follow the Figure 5 decomposition of the request context:

    - ``gpu_hit_tokens``: already resident (``GPU`` or ``GPU_CPU``), free;
    - ``swap_in_chunks`` / ``swap_in_tokens``: CPU-resident, must cross the
      PCIe link before the corresponding layers' attention;
    - ``recompute_tokens``: dropped, their raw tokens must be prepended to
      the prompt and re-prefix-filled;
    - ``new_tokens``: the request's genuinely new prompt tokens.

    ``swap_in_chunks`` is an index range (the CPU chunks are one run).
    ``alloc_tokens`` is the number of fresh GPU slots the plan needs
    (swap-in + recompute + new); ``total_context`` is the context length
    after the plan commits.
    """

    conv_id: int
    gpu_hit_tokens: int = 0
    swap_in_chunks: range = range(0)
    swap_in_tokens: int = 0
    recompute_tokens: int = 0
    new_tokens: int = 0

    @property
    def alloc_tokens(self) -> int:
        return self.swap_in_tokens + self.prefill_tokens

    @property
    def prefill_tokens(self) -> int:
        """Tokens that must actually run through the model."""
        return self.recompute_tokens + self.new_tokens

    @property
    def total_context(self) -> int:
        return self.gpu_hit_tokens + self.alloc_tokens


#: The locations as module constants: reading a member off the enum class
#: is a metaclass lookup, and the manager's hot paths (``_move`` runs on
#: every tier change) read them constantly.
_GPU, _GPU_CPU, _CPU, _DROPPED = (
    ChunkLocation.GPU, ChunkLocation.GPU_CPU, ChunkLocation.CPU,
    ChunkLocation.DROPPED,
)
#: Locations that occupy GPU slots.
_GPU_STATES = (_GPU, _GPU_CPU)
#: Locations that occupy CPU slots.
_CPU_STATES = (_CPU, _GPU_CPU)
#: The trace event of an eviction from each location.
_EVICT_EVENTS = {_GPU: "evict", _GPU_CPU: "reclaim", _CPU: "cpu_drop"}
#: Where each evictable location begins in ``cache.starts``; an eviction
#: from it sends its chunk to ``LAYOUT[_AT[location]]``, one tier colder.
_AT = {_CPU: 0, _GPU_CPU: 1, _GPU: 2}


class TieredCacheManager:
    """Token-accounting core of Pensieve's cache hierarchy.

    Args:
        gpu_capacity_tokens: KV-token slots available on the GPU tier.
        cpu_capacity_tokens: KV-token slots available on the CPU tier
            (0 disables the CPU tier, producing the paper's
            "Pensieve (GPU cache)" variant).
        scorer: eviction policy.
        chunk_size: eviction granularity in tokens (:data:`CHUNK_SIZE`).
        fault_plan: optional seeded failure schedule; when set, D2H copies
            may fail and the affected chunks degrade to ``DROPPED`` (their
            tokens recompute later) instead of crashing the manager.
        fault_counters: recovery accounting shared with the owning engine.
    """

    def __init__(
        self,
        gpu_capacity_tokens: int,
        cpu_capacity_tokens: int,
        scorer: EvictionScorer,
        chunk_size: int = CHUNK_SIZE,
        whole_conversation_eviction: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        fault_counters: Optional[FaultCounters] = None,
    ) -> None:
        if gpu_capacity_tokens <= 0:
            raise ValueError("gpu_capacity_tokens must be positive")
        if cpu_capacity_tokens < 0:
            raise ValueError("cpu_capacity_tokens must be non-negative")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.gpu_capacity_tokens = gpu_capacity_tokens
        self.cpu_capacity_tokens = cpu_capacity_tokens
        self.chunk_size = chunk_size
        self.scorer = scorer
        self.fault_plan = fault_plan
        self.fault_counters = fault_counters or FaultCounters()
        #: CachedAttention-style eviction granularity (paper Table 3):
        #: evict a conversation's entire GPU-resident context at once
        #: instead of chunk by chunk.  Kept for the granularity ablation.
        self.whole_conversation_eviction = whole_conversation_eviction
        #: Optional callback ``(cache, index, old_location, new_location)``
        #: fired for every chunk that changes tier, after the move
        #: (``cache.span(index)`` is its token range).  The functional
        #: serving layer uses it to mirror the manager's decisions onto
        #: real tensors (copying chunk data to the CPU store, vacating GPU
        #: pages, ...).
        self.observer: Optional[
            Callable[[ConversationCache, int, ChunkLocation, ChunkLocation], None]
        ] = None
        self._conversations: Dict[int, ConversationCache] = {}
        # Incremental tier totals (see module docstring).
        self._gpu_resident = 0    # tokens in GPU or GPU_CPU
        self._cpu_used = 0        # tokens in CPU or GPU_CPU
        self._reclaimable = 0     # GPU_CPU tokens of unpinned conversations
        self._evictable = 0       # GPU tokens of unpinned conversations
        # Holders: per location an eviction can take from, ``conv_id ->
        # cache`` of every conversation with a chunk there.
        self._holders: Dict[ChunkLocation, Dict[int, ConversationCache]] = {
            loc: {} for loc in _AT
        }
        # Statistics for Figure 14 style analyses.
        self.stats = {
            "lookup_tokens": 0,
            "gpu_hit_tokens": 0,
            "cpu_hit_tokens": 0,
            "disk_hit_tokens": 0,  # always 0; benchmarks/serving/layers.py:306 sums it
            "recomputed_tokens": 0,
            "swapped_out_tokens": 0,
            "dropped_tokens": 0,
            # Tokens that left the GPU_CPU state (reclaimed to CPU, or
            # promoted back to GPU on reuse) — each such exit consumes one
            # completed ahead-of-time copy; engines use this to track how
            # many settled copies remain reclaimable.
            "gpu_cpu_exit_tokens": 0,
        }
        #: Observability sink; :meth:`_bump` mirrors every ``stats``
        #: increment into a ``cache.*`` counter so a trace's totals
        #: reconcile exactly with :attr:`stats`.
        self.tracer: Optional[Tracer] = None

    def _bump(self, key: str, tokens: int) -> None:
        """Increment one ``stats`` counter, mirrored into the tracer."""
        self.stats[key] += tokens
        tracer = self.tracer
        if tracer is not None:
            tracer.count(f"cache.{key}", tokens)

    def fragmentation_tokens(self) -> int:
        """Internal fragmentation of the GPU tier at chunk granularity:
        slots inside partially-filled tail chunks.  O(conversations) —
        intended for per-iteration gauge sampling in traced runs only.
        """
        wasted = 0
        chunk_size = self.chunk_size
        gpu_cpu_at = _AT[_GPU_CPU]
        for cache in self._conversations.values():
            # GPU-resident chunks occupy the rear of the Figure 5 layout,
            # so only the final chunk can be a partially-filled GPU tail.
            partial = cache.total_tokens % chunk_size
            if partial and cache.starts[gpu_cpu_at] * chunk_size < cache.total_tokens:
                wasted += chunk_size - partial
        return wasted

    # ------------------------------------------------------------------
    # Accounting (O(1))
    # ------------------------------------------------------------------

    @property
    def gpu_resident_tokens(self) -> int:
        """Tokens occupying GPU slots (including lazily-reclaimable copies)."""
        return self._gpu_resident

    @property
    def gpu_free_tokens(self) -> int:
        """GPU slots not occupied by anyone."""
        return self.gpu_capacity_tokens - self._gpu_resident

    @property
    def reclaimable_tokens(self) -> int:
        """GPU slots occupied by already-copied (``GPU_CPU``) unpinned chunks."""
        return self._reclaimable

    @property
    def gpu_available_tokens(self) -> int:
        """Slots obtainable without any PCIe traffic (free + reclaimable)."""
        return self.gpu_free_tokens + self._reclaimable

    @property
    def cpu_used_tokens(self) -> int:
        return self._cpu_used

    @property
    def cpu_free_tokens(self) -> int:
        return self.cpu_capacity_tokens - self._cpu_used

    @property
    def evictable_gpu_tokens(self) -> int:
        """GPU-only tokens of unpinned conversations (swap-out candidates)."""
        return self._evictable

    def conversation(self, conv_id: int) -> Optional[ConversationCache]:
        return self._conversations.get(conv_id)

    def conversations(self) -> List[ConversationCache]:
        return list(self._conversations.values())

    def context_lengths(self, conv_ids: Iterable[int]) -> List[int]:
        """Each conversation's cached context length (its
        ``total_tokens``), in order: a whole decode batch's in one call."""
        conversations = self._conversations
        return [conversations[conv_id].total_tokens for conv_id in conv_ids]

    # ------------------------------------------------------------------
    # Boundary moves and counter maintenance
    # ------------------------------------------------------------------

    def _move(
        self, cache: ConversationCache, old: ChunkLocation, new: ChunkLocation,
        lo: int, hi: int,
    ) -> None:
        """Chunks ``[lo, hi)`` of ``cache``, all in ``old``, have moved to
        ``new`` (the caller set the boundaries): the one place that keeps
        the tier counters and the move's ``stats`` key exact and tells the
        observer, chunk by chunk."""
        n = cache.tokens(lo, hi)
        if old in _GPU_STATES and new not in _GPU_STATES:
            self._gpu_resident -= n
        elif old not in _GPU_STATES and new in _GPU_STATES:
            self._gpu_resident += n
        if old in _CPU_STATES and new not in _CPU_STATES:
            self._cpu_used -= n
        elif old not in _CPU_STATES and new in _CPU_STATES:
            self._cpu_used += n
        if not cache.pinned:
            if old is _GPU_CPU:
                self._reclaimable -= n
            if new is _GPU_CPU:
                self._reclaimable += n
            if old is _GPU:
                self._evictable -= n
            if new is _GPU:
                self._evictable += n
        if old is _GPU_CPU:
            self._bump("gpu_cpu_exit_tokens", n)
        if new is _DROPPED:
            self._bump("dropped_tokens", n)
        elif old is _GPU:
            self._bump("swapped_out_tokens", n)  # copied, or suspended to CPU
        observer = self.observer
        if observer is not None:
            for index in range(lo, hi):
                observer(cache, index, old, new)

    def _advance(self, cache: ConversationCache, location: ChunkLocation) -> None:
        """Evict ``location``'s first chunk one tier colder (``GPU`` to
        ``GPU_CPU`` to ``CPU`` to ``DROPPED``): its boundary
        moves one chunk on."""
        at = _AT[location]
        starts = cache.starts
        index = starts[at]
        starts[at] = index + 1
        colder = LAYOUT[at]
        holders = self._holders
        conv_id = cache.conv_id
        if at:  # ``DROPPED`` has no holders: nothing is evicted from it
            holders[colder][conv_id] = cache
        if index + 1 == (cache.num_chunks if location is _GPU else starts[at + 1]):
            del holders[location][conv_id]
        self._move(cache, location, colder, index, index + 1)

    def _relayout(self, cache: ConversationCache, starts: List[int]) -> None:
        """Set all three boundaries of ``cache`` and :meth:`_move` every run
        of chunks whose location changed, front to back."""
        old = cache.bounds()
        cache.starts = starts
        new = cache.bounds()
        conv_id = cache.conv_id
        for k, location in enumerate(LAYOUT[1:], 1):
            if new[k] < new[k + 1]:
                self._holders[location][conv_id] = cache
            else:
                self._holders[location].pop(conv_id, None)
        # Between two consecutive boundaries of either layout every chunk
        # has one old and one new location: the rank of the boundaries at
        # or below it.
        points = sorted({*old, *new})
        for lo, hi in zip(points, points[1:]):
            before = LAYOUT[bisect_right(old, lo, 1, 4) - 1]
            after = LAYOUT[bisect_right(new, lo, 1, 4) - 1]
            if before is not after:
                self._move(cache, before, after, lo, hi)

    def _extend(self, cache: ConversationCache, tokens: int) -> None:
        """Append ``tokens`` fresh GPU tokens to a conversation: they fill
        a partial GPU tail or chunks past every boundary, so on GPU."""
        if tokens:
            cache.total_tokens += tokens
            self._holders[_GPU][cache.conv_id] = cache
            self._gpu_resident += tokens
            if not cache.pinned:
                self._evictable += tokens

    def _set_pinned(self, cache: ConversationCache, pinned: bool) -> None:
        if cache.pinned == pinned:
            return
        _, _, gpu_cpu_at, gpu_at, end = cache.bounds()
        gpu_cpu = cache.tokens(gpu_cpu_at, gpu_at)
        gpu = cache.tokens(gpu_at, end)
        if pinned:
            self._reclaimable -= gpu_cpu
            self._evictable -= gpu
        else:
            self._reclaimable += gpu_cpu
            self._evictable += gpu
        cache.pinned = pinned

    def _audit(self) -> None:
        """Re-derive every counter and the holders from the boundaries
        and assert consistency.

        Used by the test suite (including property-based tests) to prove
        the incremental accounting can never drift.
        """
        gpu = cpu = reclaimable = evictable = 0
        for cache in self._conversations.values():
            bounds = cache.bounds()
            assert list(bounds) == sorted(bounds), bounds
            gpu += cache.tokens_in(*_GPU_STATES)
            cpu += cache.tokens_in(*_CPU_STATES)
            if not cache.pinned:
                reclaimable += cache.tokens_in(_GPU_CPU)
                evictable += cache.tokens_in(_GPU)
        assert gpu == self._gpu_resident, (gpu, self._gpu_resident)
        assert cpu == self._cpu_used, (cpu, self._cpu_used)
        assert reclaimable == self._reclaimable, (reclaimable, self._reclaimable)
        assert evictable == self._evictable, (evictable, self._evictable)
        for loc, holders in self._holders.items():
            assert holders.keys() <= self._conversations.keys(), (loc, holders)
            for cache in self._conversations.values():
                held = holders.get(cache.conv_id)
                assert held is (cache if cache.chunks_in(loc) else None), (
                    loc, cache
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def open(self, conv_id: int, now: float) -> ConversationCache:
        """Get or create the cache record for a conversation and pin it."""
        cache = self._conversations.get(conv_id)
        if cache is None:
            cache = ConversationCache(conv_id, self.chunk_size, now=now)
            self._conversations[conv_id] = cache
        self._set_pinned(cache, True)
        cache.last_active = now
        return cache

    def close(self, conv_id: int, now: float) -> None:
        """Unpin a conversation after its request finishes.

        Its KV-tokens stay resident (this is the stateful-serving point of
        the whole system); ``last_active`` becomes ``now``.
        """
        cache = self._conversations[conv_id]
        self._set_pinned(cache, False)
        cache.last_active = now

    def forget(self, conv_id: int) -> int:
        """Drop every trace of a conversation; returns freed GPU tokens."""
        cache = self._conversations.pop(conv_id, None)
        if cache is None:
            return 0
        gpu = cache.tokens_in(*_GPU_STATES)
        self._gpu_resident -= gpu
        self._cpu_used -= cache.tokens_in(*_CPU_STATES)
        if not cache.pinned:
            self._reclaimable -= cache.tokens_in(_GPU_CPU)
            self._evictable -= cache.tokens_in(_GPU)
        for holders in self._holders.values():
            holders.pop(conv_id, None)
        return gpu

    # ------------------------------------------------------------------
    # Restore planning (Figure 5 decomposition)
    # ------------------------------------------------------------------

    def plan_restore(self, conv_id: int, new_tokens: int) -> CachePlan:
        """Plan context placement for a request with ``new_tokens`` of prompt.

        Does not mutate any state (it may be called speculatively every
        scheduling round); :meth:`commit_restore` applies the plan — and
        records the hit/recompute statistics — once the engine has
        modelled (or performed) the data movement.
        """
        if new_tokens < 0:
            raise ValueError("new_tokens must be non-negative")
        plan = CachePlan(conv_id=conv_id, new_tokens=new_tokens)
        cache = self._conversations.get(conv_id)
        if cache is not None:
            _, cpu_at, gpu_cpu_at, _, end = cache.bounds()
            plan.recompute_tokens = cache.tokens(0, cpu_at)
            plan.swap_in_chunks = range(cpu_at, gpu_cpu_at)
            plan.swap_in_tokens = cache.tokens(cpu_at, gpu_cpu_at)
            plan.gpu_hit_tokens = cache.tokens(gpu_cpu_at, end)
        return plan

    def commit_restore(self, plan: CachePlan, now: float) -> ConversationCache:
        """Apply a restore plan: all chunks become GPU-resident and the
        context is extended by the plan's new tokens.

        The caller must have ensured capacity (see :meth:`ensure_capacity`);
        the copies that make the room are reclaimed here.

        Raises:
            CacheCapacityError: if the GPU tier cannot hold the result;
                nothing is counted, pinned or reclaimed then.
        """
        # Pinned while room is made: the conversation's own copies are
        # promoted, so they are neither room nor reclaimed for it.
        cache = self._conversations.get(plan.conv_id)
        pinned = cache is None or cache.pinned
        if cache is not None:
            self._set_pinned(cache, True)
        try:
            self._make_room(plan.alloc_tokens, now)
        except CacheCapacityError:
            if cache is not None:
                self._set_pinned(cache, pinned)
            raise
        self._bump("lookup_tokens", plan.total_context - plan.new_tokens)
        self._bump("gpu_hit_tokens", plan.gpu_hit_tokens)
        self._bump("cpu_hit_tokens", plan.swap_in_tokens)
        self._bump("recomputed_tokens", plan.recompute_tokens)
        cache = self.open(plan.conv_id, now)
        # Everything the request touches becomes GPU-resident: CPU chunks
        # are swapped in, dropped chunks recomputed, and lazily-reclaimable
        # copies are promoted back to GPU-only (their CPU copy is
        # invalidated on reuse for simplicity).
        self._relayout(cache, [0, 0, 0])
        self._extend(cache, plan.new_tokens)
        return cache

    def append_tokens(self, conv_ids: Sequence[int], now: float) -> None:
        """One decode step: grow each pinned conversation in ``conv_ids``
        by one token, all or nothing.

        Every tail and the step's deficit (growers minus free slots) are
        checked before anything moves; the deficit is then reclaimed from
        other conversations' copies through one ``GPU_CPU`` victim stream
        scored at ``now`` (the iteration's clock, not a grower's
        ``last_active``).

        Raises:
            TailNotOnGpuError: some conversation's partial tail chunk is
                not on GPU.
            CacheCapacityError: the step does not fit even after
                reclaiming every copy.
            ValueError: some conversation is not pinned.
        """
        conversations = self._conversations
        caches = [conversations[conv_id] for conv_id in conv_ids]
        chunk_size = self.chunk_size
        for cache in caches:
            if not cache.pinned:
                raise ValueError(f"only a pinned conversation grows: {cache!r}")
            total = cache.total_tokens
            if total % chunk_size and cache.starts[-1] * chunk_size >= total:
                cache.check_growable()  # raises: the tail is not on GPU
        self._make_room(len(caches), now)
        # ``_extend(cache, 1)`` for each: pinned, so none is evictable.
        gpu_holders = self._holders[_GPU]
        for cache in caches:
            cache.total_tokens += 1
            gpu_holders[cache.conv_id] = cache
        self._gpu_resident += len(caches)

    def _make_room(self, tokens: int, now: float) -> None:
        """Reclaim unpinned conversations' copies until ``tokens`` more
        fit on the GPU; refuse before reclaiming anything (a refusal after
        a partial reclaim would leave chunks evicted by an operation that
        reports failure)."""
        deficit = tokens - self.gpu_free_tokens
        if deficit <= 0:
            return
        if deficit > self._reclaimable:
            raise CacheCapacityError(
                f"{tokens} more GPU tokens do not fit "
                f"(free={self.gpu_free_tokens}, reclaimable={self._reclaimable})"
            )
        reclaimed = self.reclaim(deficit, now)
        assert reclaimed >= deficit, (reclaimed, deficit)

    def invalidate_prefix(self, conv_id: int, upto: Optional[int] = None) -> int:
        """Recovery path for a failed or corrupt swap-in: drop the
        conversation's chunks from the front through index ``upto``
        (through its last CPU chunk when ``None``) so the next restore
        plan recomputes those tokens from the raw-token store (§4.3.4
        fallback; see :meth:`_drop_leading_prefix`).  Returns tokens
        invalidated (0 for an unknown conversation — recovery must not
        raise anew).
        """
        cache = self._conversations.get(conv_id)
        if cache is None:
            return 0
        if upto is None:
            upto = cache.rear(_CPU)
        return self._drop_leading_prefix(cache, upto)

    def fall_back_to_recompute(
        self,
        conv_id: int,
        new_tokens: int,
        now: float,
        corrupt: int = 0,
        upto: Optional[int] = None,
        **attrs: object,
    ) -> Tuple[CachePlan, int]:
        """The recompute rung of the restore fault ladder (§4.3.4).

        The swap-in failed: its transfer failed terminally, or, with
        ``corrupt``, that many of its chunks failed their checksum.
        Counts the failure, gives the CPU chunks up through index
        ``upto`` (all of them when ``None``) with
        :meth:`invalidate_prefix`, traces the fallback (``attrs`` ride
        along on the event) and re-plans: ``alloc_tokens`` is unchanged
        (the swap-in tokens become recompute tokens), so a capacity check
        made on the old plan stays valid.

        Returns ``(plan, tokens invalidated)``.
        """
        counters = self.fault_counters
        if corrupt:
            counters.corrupted_chunks += corrupt
        else:
            counters.swap_in_failures += 1
        counters.recompute_fallbacks += 1
        invalidated = self.invalidate_prefix(conv_id, upto)
        tracer = self.tracer
        if tracer is not None:
            tracer.count("fault.recompute_fallbacks")
            tracer.instant(
                "swap_in_fallback", t=now, track="cache", **attrs,
                conv_id=conv_id, tokens=invalidated, corrupt=bool(corrupt),
            )
        return self.plan_restore(conv_id, new_tokens), invalidated

    # ------------------------------------------------------------------
    # Eviction machinery
    # ------------------------------------------------------------------

    def _victims(
        self, location: ChunkLocation, now: float
    ) -> Iterator[Tuple[float, int, ConversationCache]]:
        """Lazily yield ``(score, index, cache)`` eviction victims of
        ``location`` in ascending ``(score, conv_id)`` order.

        Only the *first* chunk of each unpinned holder of the location is
        a candidate, which keeps the Figure 5 layout during front-to-back
        eviction.  A conversation has one heap entry at a time, so a tie
        in score is settled by its ``conv_id``.

        The caller moves each yielded chunk out of ``location`` before
        asking for the next.  The location is scanned and scored once, on
        the first request; after a victim only its conversation's next
        chunk there is scored and pushed.  That equals rescoring
        everything per victim because, while a stream is drawn from,
        ``now`` and every ``last_active`` and pin are fixed, no chunk
        enters ``location``, and a chunk leaves it only as a victim or by
        a front-drop of its own conversation: the nested pressure calls
        work on colder locations, and the observer mutates no manager
        state.  A front-drop between two pulls (:meth:`swap_out` drops a
        GPU victim, and the CPU chunks ahead of it, while its CPU stream
        is open) leaves a stale entry; it is skipped, and the
        conversation's current first chunk there, if any, takes its place.
        """
        # Bound once: calling an instance through its type's ``__call__``
        # slot costs about as much again as the bound method.
        scorer = self.scorer.__call__
        chunk_size = self.chunk_size
        holders = self._holders[location]
        at = _AT[location]  # ``cache.starts[at]``: the holder's first chunk
        # An entry carries the chunk's end, not its index: the index is
        # ``(end - 1) // chunk_size`` either way, and one less to compute
        # per candidate.
        heap = [
            (
                scorer(
                    end if (end := (cache.starts[at] + 1) * chunk_size)
                    < cache.total_tokens else (end := cache.total_tokens),
                    cache.last_active, now,
                ),
                conv_id, end, cache,
            )
            for conv_id, cache in holders.items()
            if not cache.pinned
        ]
        heapq.heapify(heap)
        while heap:
            score, conv_id, end, cache = heap[0]
            index = (end - 1) // chunk_size
            if conv_id in holders and cache.starts[at] == index:
                yield score, index, cache
                assert conv_id not in holders or cache.starts[at] > index, (
                    f"victim {index} of {cache!r} not evicted"
                )
            if conv_id in holders:
                end = cache.span(cache.starts[at])[1]
                heapq.heapreplace(
                    heap, (scorer(end, cache.last_active, now), conv_id, end, cache)
                )
            else:
                heapq.heappop(heap)

    def _evict(
        self,
        location: ChunkLocation,
        tokens_needed: int,
        now: float,
        step: Callable[[ConversationCache, int, int, float, float], Optional[str]],
        victims: Optional[Iterator[Tuple[float, int, ConversationCache]]] = None,
    ) -> int:
        """The one eviction loop: take victims of ``location`` (from the
        open stream ``victims``, else a new one) until ``tokens_needed``
        tokens have left it or the stream runs dry.  ``step(cache, index,
        tokens, score, now)`` moves each victim (chunk ``index``, ``tokens``
        long) out and returns its trace ``outcome`` or ``None``; the loop
        traces it.  Returns tokens evicted.

        The budget is checked *before* the next pull: ``swap_out`` keeps
        one CPU stream open across many calls, and the stream asserts
        that each victim it yields has left before the next is pulled.
        Granularity ablation: a GPU victim takes its conversation's whole
        GPU context along, one chunk at a time, even past the target (the
        overshoot is the cost of coarse eviction the paper's design
        avoids).
        """
        if victims is None:
            victims = self._victims(location, now)
        whole = self.whole_conversation_eviction and location is _GPU
        holders = self._holders[location]
        freed = 0
        while freed < tokens_needed:
            victim = next(victims, None)
            if victim is None:
                break
            score, index, cache = victim
            while True:
                start, end = cache.span(index)
                tokens = end - start
                outcome = step(cache, index, tokens, score, now)
                freed += tokens
                tracer = self.tracer
                if tracer is not None:
                    attrs = {} if outcome is None else {"outcome": outcome}
                    tracer.instant(
                        _EVICT_EVENTS[location], t=now, track="cache",
                        conv_id=cache.conv_id, chunk=index,
                        tokens=tokens, **attrs, score=score,
                    )
                if not whole or cache.conv_id not in holders:
                    break
                assert cache.starts[_AT[_GPU]] > index, (
                    f"victim {index} of {cache!r} not evicted"
                )
                index = cache.starts[_AT[_GPU]]
        return freed

    def swap_out(self, tokens_needed: int, now: float) -> Tuple[int, int]:
        """Make ``tokens_needed`` GPU tokens obtainable by copying GPU-only
        chunks to the CPU tier (ahead-of-time swap-out, §4.3.2) — and, when
        the CPU tier is saturated, by dropping the cheapest chunks outright.

        Copied chunks move ``GPU -> GPU_CPU``; their GPU slots stay
        occupied until :meth:`reclaim`.  A chunk that is not copied is
        dropped with the conversation's leading prefix through it (the
        tokens recompute on return, §4.3.4, so no served output is ever
        lost).  Either way each victim adds its own tokens to the progress
        (reclaimable tokens plus tokens freed by drops).  Returns
        ``(chunks, tokens)`` copied, so the engine can model the PCIe
        traffic.
        """
        if self._evictable == 0:
            # Every GPU holder is pinned (a chunk holds at least one
            # token): there is no victim to scan for.
            return (0, 0)
        # One CPU victim stream for the whole call, scanned when a copy
        # first finds the CPU tier full: every later shortfall continues
        # it instead of rescanning (exact, see :meth:`_victims`).
        cpu_victims = self._victims(_CPU, now)
        copied = [0, 0]

        def step(
            cache: ConversationCache, index: int, tokens: int, score: float, now: float
        ) -> str:
            copy = self.cpu_capacity_tokens > 0  # else GPU-cache-only variant
            if copy and self.fault_plan is not None and self.fault_plan.fires(
                FaultSite.SWAP_OUT
            ):
                self.fault_counters.swap_out_failures += 1  # the D2H copy failed
                copy = False
            if copy and self.cpu_free_tokens < tokens:
                self._evict(
                    _CPU, tokens - self.cpu_free_tokens, now,
                    self._drop_cpu_victim, victims=cpu_victims,
                )
                # Still short: the CPU tier is saturated with data that
                # may not be dropped (pinned conversations' chunks, or
                # copies backing reclaimable GPU slots).
                copy = self.cpu_free_tokens >= tokens
            if not copy:
                self._drop_leading_prefix(cache, index)
                return "dropped"
            self._advance(cache, _GPU)
            copied[0] += 1
            copied[1] += tokens
            return "copied"

        self._evict(_GPU, tokens_needed - self._reclaimable, now, step)
        return copied[0], copied[1]

    def _drop_leading_prefix(
        self, cache: ConversationCache, upto: Optional[int]
    ) -> int:
        """Grow a conversation's ``DROPPED`` prefix through chunk
        ``upto``: the only way a cached layout shrinks (Figure 5), and the
        only code that gives chunks up for §4.3.4 recomputation.

        Every chunk from the front through ``upto`` that still holds data
        is dropped with it, whatever tier it is in — each boundary rises
        to at least ``upto + 1``.  ``GPU_CPU`` chunks lose both their GPU
        slots and their CPU copy.  Returns tokens dropped (0 when ``upto``
        is ``None``).
        """
        if upto is None:
            return 0
        stop = upto + 1
        dropped = cache.tokens(cache.starts[0], stop)  # ahead: dropped already
        self._relayout(cache, [at if at > stop else stop for at in cache.starts])
        return dropped

    def reclaim(self, tokens_needed: int, now: float) -> int:
        """Actually free GPU slots of already-copied chunks
        (``GPU_CPU -> CPU``).  Returns tokens freed (may fall short)."""

        def step(
            cache: ConversationCache, index: int, tokens: int, score: float, now: float
        ) -> None:
            self._advance(cache, _GPU_CPU)
            tracer = self.tracer
            if tracer is not None:
                tracer.count("cache.reclaimed_tokens", tokens)

        return self._evict(_GPU_CPU, tokens_needed, now, step)

    def drop_from_cpu(self, tokens_needed: int, now: float) -> int:
        """Free CPU-tier space under memory pressure: each victim, in
        ascending retention score, is dropped for §4.3.4 recomputation.
        Returns tokens freed."""
        return self._evict(_CPU, tokens_needed, now, self._drop_cpu_victim)

    def _drop_cpu_victim(
        self, cache: ConversationCache, index: int, tokens: int, score: float,
        now: float,
    ) -> str:
        """Drop one CPU chunk, its conversation's first there (only
        dropped chunks lie ahead of it)."""
        self._drop_leading_prefix(cache, index)
        return "dropped"

    # ------------------------------------------------------------------
    # Capacity orchestration for the scheduler
    # ------------------------------------------------------------------

    def ensure_capacity(self, tokens_needed: int, now: float) -> Tuple[int, int]:
        """Make ``tokens_needed`` GPU tokens obtainable, swapping out (and,
        if necessary, dropping) as required.

        Returns ``(chunks, tokens)`` newly copied to the CPU so the caller
        can model the transfer.  After this call ``gpu_available_tokens >=
        tokens_needed`` unless even total capacity is insufficient, in
        which case :class:`CacheCapacityError` is raised.
        """
        if tokens_needed > self.gpu_capacity_tokens:
            raise CacheCapacityError(
                f"request needs {tokens_needed} tokens; GPU capacity is "
                f"{self.gpu_capacity_tokens}"
            )
        if self.gpu_available_tokens >= tokens_needed:
            return (0, 0)
        copied = self.swap_out(tokens_needed - self.gpu_free_tokens, now)
        if self.gpu_available_tokens < tokens_needed:
            raise CacheCapacityError(
                f"cannot obtain {tokens_needed} GPU tokens "
                f"(available={self.gpu_available_tokens})"
            )
        return copied

    def release_conversation_gpu(self, conv_id: int, now: float) -> Tuple[int, int]:
        """Force a conversation's GPU chunks out (suspension, §4.3.5).

        GPU-only chunks are copied to the CPU tier when it has room and
        dropped otherwise; already-copied (``GPU_CPU``) chunks are simply
        reclaimed.  Returns ``(copied_tokens, dropped_tokens)`` of the
        GPU-only chunks — the first is the PCIe traffic the caller must
        model.  Stored chunks that a drop takes with it (see below) count
        in ``stats`` only.
        """
        cache = self._conversations[conv_id]
        self._set_pinned(cache, False)
        # Already-copied chunks (possible only if the conversation was
        # never promoted after an ahead-of-time copy) reclaim for free.
        cpu_at, _, gpu_at = cache.starts
        self._relayout(cache, [cpu_at, gpu_at, gpu_at])
        end = cache.num_chunks
        gpu_tokens = cache.tokens(gpu_at, end)
        room = 0 if self.cpu_capacity_tokens == 0 else self.cpu_free_tokens
        dropped = 0
        upto: Optional[int] = None
        if (
            gpu_tokens > 0
            and room > 0
            and self.fault_plan is not None
            and self.fault_plan.fires(FaultSite.SWAP_OUT)
        ):
            # The suspension's batched D2H copy failed: degrade every chunk
            # to a drop; the suspended request recomputes them on resume.
            self.fault_counters.swap_out_failures += 1
            dropped, upto = gpu_tokens, end - 1
        elif gpu_tokens > room:
            # The CPU tier cannot hold everything: drop the conversation's
            # *leading* chunks (cheapest to recompute, §4.3.1) until the
            # GPU chunks that remain fit.  The dropped part grows from the
            # very front — Figure 5 allows nothing else — so the stored
            # prefix goes first and its CPU chunks' slots count as room.
            # Behind a GPU chunk every CPU chunk is full.
            short = gpu_tokens - room
            cpu_chunks = -(-short // self.chunk_size)
            if cpu_chunks <= gpu_at - cpu_at:
                upto = cpu_at + cpu_chunks - 1
            else:
                short -= cache.tokens(cpu_at, gpu_at)
                upto = gpu_at - 1 + -(-short // self.chunk_size)
                dropped = cache.tokens(gpu_at, upto + 1)
        self._drop_leading_prefix(cache, upto)
        self._relayout(cache, [cache.starts[0], end, end])
        return gpu_tokens - dropped, dropped
