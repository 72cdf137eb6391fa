"""Tiered (GPU/CPU/disk) KV-cache manager.

The manager owns all token-level accounting for every tier and implements
the mechanics of Pensieve's cache design:

- **token-chunk eviction** in ascending score order under a pluggable
  eviction policy (§4.3.1; policies live in :mod:`repro.core.eviction`);
- **ahead-of-time swap-out** with lazy reclamation (§4.3.2): chunks are
  *copied* to the CPU tier (state ``GPU_CPU``) when free GPU space falls
  below a threshold, and their GPU slots are only truly handed over when an
  allocation needs them;
- **CPU-tier demotion/dropping** under CPU memory pressure: with the
  optional disk tier enabled, a chunk leaving the CPU lands on disk when
  there is room, or when room can be made by displacing strictly
  lower-scored disk chunks, and is dropped for §4.3.4 recomputation
  otherwise;
- **restore planning** (:class:`CachePlan`): given a returning
  conversation, compute exactly which tokens are GPU hits, which must be
  swapped in from the CPU, which must be read back from disk, and which
  must be recomputed — the Figure 5 decomposition, disk-extended.

The manager is deliberately time-free: it never talks to the PCIe or NVMe
links or the clock.  Engines ask it *what* to move and separately model
*how long* the movement takes, which lets the identical bookkeeping drive
both the functional layer (real numpy tensors) and the performance
simulation.

Implementation note: the serving simulation calls the accounting
properties on every scheduling round and evicts on most of them, so both
are incremental.  All tier totals are maintained as counters (O(1)
reads), and a *frontier index* holds, per location, each conversation's
earliest chunk there — the only chunk of it an eviction may take.

Each cache move is written once.  Every location change is one
:meth:`TieredCacheManager._move`, which keeps the counters and the index
exact, bumps the move's ``stats`` key and checks the move against its two
neighbours, which by induction is the full layout check (a promotion is
checked with the whole :meth:`~TieredCacheManager.commit_restore` sweep
instead).  Every eviction is one pass of
:meth:`TieredCacheManager._evict`, a budgeted loop that draws victims,
applies the caller's step and traces each one.  It draws from
:meth:`TieredCacheManager._victims`, which scores the location's frontiers
once, heapifies them, and after each victim pushes only that
conversation's next frontier: O(N + k log N) for k victims among N cached
conversations, and one CPU stream serves a whole ``swap_out`` however
often its copies find the CPU tier full.  The scan is one comprehension
that calls the scorer through its bound ``__call__``, fetched once per
scan.  Decode growth of a whole batch is one
:meth:`~TieredCacheManager.append_decode_step` call: on a full GPU it
reclaims the step's whole deficit through one ``GPU_CPU`` stream scored
at the caller's ``now`` (the iteration's clock, the eviction time of
§4.3.1), and its common case bumps a partial GPU tail and the GPU total
in place; it calls :meth:`~TieredCacheManager._extend` only to create a
chunk.  A
``swap_out`` with no evictable GPU token returns before it scans.
:meth:`_audit` re-derives the counters, the index and every layout from
scratch and is exercised by the test suite.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    Callable, Collection, Dict, Iterable, Iterator, List, NamedTuple, Optional,
    Sequence, Tuple,
)

from repro.faults.plan import FaultCounters, FaultPlan, FaultSite
from repro.kvcache.chunks import Chunk, ChunkLocation, ConversationCache
from repro.obs.tracer import Tracer

#: Eviction granularity in tokens (§4.3: 32-token chunks); the default of
#: every constructor that takes a ``chunk_size``.
CHUNK_SIZE = 32

#: Eviction scorer: ``(chunk, last_active, now) -> score``.  Chunks are
#: evicted in ascending score order (low retention value goes first).
EvictionScorer = Callable[[Chunk, float, float], float]

class CacheCapacityError(RuntimeError):
    """Raised when an operation cannot fit in the configured tiers."""


@dataclass
class CachePlan:
    """Placement plan for a returning (or new) request's context.

    Token counts follow the Figure 5 decomposition of the request context:

    - ``gpu_hit_tokens``: already resident (``GPU`` or ``GPU_CPU``), free;
    - ``swap_in_chunks`` / ``swap_in_tokens``: CPU-resident, must cross the
      PCIe link before the corresponding layers' attention;
    - ``disk_read_chunks`` / ``disk_read_tokens``: disk-resident, must be
      read back over NVMe into the host and then cross the PCIe link;
    - ``recompute_tokens``: dropped, their raw tokens must be prepended to
      the prompt and re-prefix-filled;
    - ``new_tokens``: the request's genuinely new prompt tokens.

    ``alloc_tokens`` is the number of fresh GPU slots the plan needs
    (swap-in + disk-read + recompute + new); ``total_context`` is the
    context length after the plan commits.
    """

    conv_id: int
    gpu_hit_tokens: int = 0
    swap_in_chunks: List[Chunk] = field(default_factory=list)
    swap_in_tokens: int = 0
    disk_read_chunks: List[Chunk] = field(default_factory=list)
    disk_read_tokens: int = 0
    recompute_tokens: int = 0
    new_tokens: int = 0

    @property
    def alloc_tokens(self) -> int:
        return (
            self.swap_in_tokens
            + self.disk_read_tokens
            + self.recompute_tokens
            + self.new_tokens
        )

    @property
    def prefill_tokens(self) -> int:
        """Tokens that must actually run through the model."""
        return self.recompute_tokens + self.new_tokens

    @property
    def total_context(self) -> int:
        return (
            self.gpu_hit_tokens
            + self.swap_in_tokens
            + self.disk_read_tokens
            + self.recompute_tokens
            + self.new_tokens
        )


#: The locations as module constants: reading a member off the enum class
#: is a metaclass lookup, and the manager's hot paths (``_move`` runs on
#: every tier change) read them constantly.
_GPU, _GPU_CPU, _CPU, _DISK, _DROPPED = (
    ChunkLocation.GPU, ChunkLocation.GPU_CPU, ChunkLocation.CPU,
    ChunkLocation.DISK, ChunkLocation.DROPPED,
)
#: Locations that occupy GPU slots.
_GPU_STATES = (_GPU, _GPU_CPU)
#: Locations that occupy CPU slots.
_CPU_STATES = (_CPU, _GPU_CPU)
#: The trace event of an eviction from each location.
_EVICT_EVENTS = {
    _GPU: "evict", _GPU_CPU: "reclaim", _CPU: "cpu_drop", _DISK: "disk_drop",
}


class RestoreTier(NamedTuple):
    """How one stored tier's retrieval can fail, and what undoes it."""

    site: FaultSite       #: the transfer; retried with backoff
    read_site: FaultSite  #: the store's checksum re-verification
    blamed: FaultSite     #: names the ``fault`` and ``<name>_fallback`` events
    chunks: str           #: ``CachePlan`` field listing the tier's chunks
    failures: str         #: ``FaultCounters`` field for terminal transfer failures
    locations: Tuple[ChunkLocation, ...]  #: what ``invalidate_prefix`` gives up


#: The restore fallback, coldest tier first: a disk failure drops the
#: disk prefix only, and the CPU chunks behind it still swap in.
RESTORE_TIERS = (
    RestoreTier(
        FaultSite.NVME_STALL, FaultSite.DISK_READ, FaultSite.DISK_READ,
        "disk_read_chunks", "disk_read_failures", (_DISK,),
    ),
    RestoreTier(
        FaultSite.SWAP_IN, FaultSite.CPU_READ, FaultSite.SWAP_IN,
        "swap_in_chunks", "swap_in_failures", (_DISK, _CPU),
    ),
)


class TieredCacheManager:
    """Token-accounting core of Pensieve's cache hierarchy.

    Args:
        gpu_capacity_tokens: KV-token slots available on the GPU tier.
        cpu_capacity_tokens: KV-token slots available on the CPU tier
            (0 disables the CPU tier, producing the paper's
            "Pensieve (GPU cache)" variant).
        scorer: eviction policy.
        disk_capacity_tokens: KV-token slots available on the disk (NVMe)
            tier behind the CPU; 0 (the default) disables the tier,
            reproducing the paper's two-tier behaviour exactly.  Chunks
            reach disk only from the CPU tier, so a disk tier needs a
            CPU tier in front of it.
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
        disk_capacity_tokens: int = 0,
    ) -> None:
        if gpu_capacity_tokens <= 0:
            raise ValueError("gpu_capacity_tokens must be positive")
        if cpu_capacity_tokens < 0:
            raise ValueError("cpu_capacity_tokens must be non-negative")
        if disk_capacity_tokens < 0:
            raise ValueError("disk_capacity_tokens must be non-negative")
        if disk_capacity_tokens > 0 and cpu_capacity_tokens == 0:
            raise ValueError(
                "a disk tier needs a CPU tier in front of it: chunks reach "
                "disk only from the CPU tier"
            )
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.gpu_capacity_tokens = gpu_capacity_tokens
        self.cpu_capacity_tokens = cpu_capacity_tokens
        self.disk_capacity_tokens = disk_capacity_tokens
        self.chunk_size = chunk_size
        self.scorer = scorer
        self.fault_plan = fault_plan
        self.fault_counters = fault_counters or FaultCounters()
        #: CachedAttention-style eviction granularity (paper Table 3):
        #: evict a conversation's entire GPU-resident context at once
        #: instead of chunk by chunk.  Kept for the granularity ablation.
        self.whole_conversation_eviction = whole_conversation_eviction
        #: Optional callback ``(cache, chunk, old_location, new_location)``
        #: fired on every tier transition.  The functional serving layer
        #: uses it to mirror the manager's decisions onto real tensors
        #: (copying chunk data to the CPU store, vacating GPU pages, ...).
        self.observer: Optional[
            Callable[[ConversationCache, Chunk, ChunkLocation, ChunkLocation], None]
        ] = None
        self._conversations: Dict[int, ConversationCache] = {}
        # Incremental tier totals (see module docstring).
        self._gpu_resident = 0    # tokens in GPU or GPU_CPU
        self._cpu_used = 0        # tokens in CPU or GPU_CPU
        self._disk_used = 0       # tokens in DISK
        self._reclaimable = 0     # GPU_CPU tokens of unpinned conversations
        self._evictable = 0       # GPU tokens of unpinned conversations
        # Frontier index: per location, ``conv_id ->`` the conversation's
        # earliest chunk there (absent when it has none).
        self._frontier: Dict[ChunkLocation, Dict[int, Chunk]] = {
            loc: {} for loc in ChunkLocation
        }
        # Statistics for Figure 14 style analyses.
        self.stats = {
            "lookup_tokens": 0,
            "gpu_hit_tokens": 0,
            "cpu_hit_tokens": 0,
            "disk_hit_tokens": 0,
            "recomputed_tokens": 0,
            "swapped_out_tokens": 0,
            "dropped_tokens": 0,
            # Disk-tier traffic: tokens demoted CPU -> DISK under host
            # memory pressure, and tokens evicted from the disk tier
            # (each disk eviction also counts into ``dropped_tokens`` —
            # the tokens become recompute-needing at that moment; a
            # forgotten conversation's disk tokens count here only).
            "demoted_tokens": 0,
            "disk_dropped_tokens": 0,
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
        for cache in self._conversations.values():
            # GPU-resident chunks occupy the rear of the Figure 5 layout,
            # so only the final chunk can be a partially-filled GPU tail.
            if not cache.chunks:
                continue
            tail = cache.chunks[-1]
            if tail.location in _GPU_STATES and tail.num_tokens < self.chunk_size:
                wasted += self.chunk_size - tail.num_tokens
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
    def disk_used_tokens(self) -> int:
        return self._disk_used

    @property
    def disk_free_tokens(self) -> int:
        return self.disk_capacity_tokens - self._disk_used

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
        return [
            chunks[-1].end if (chunks := conversations[conv_id].chunks) else 0
            for conv_id in conv_ids
        ]

    # ------------------------------------------------------------------
    # Counter maintenance
    # ------------------------------------------------------------------

    def _move(self, cache: ConversationCache, chunk: Chunk, new: ChunkLocation) -> None:
        """Move a chunk between tiers: the one place that keeps the tier
        counters, the move's ``stats`` key and the frontier index exact,
        checks the layout around the chunk and tells the observer."""
        old = chunk.location
        if old is new:
            return
        n = chunk.num_tokens
        if old in _GPU_STATES and new not in _GPU_STATES:
            self._gpu_resident -= n
        elif old not in _GPU_STATES and new in _GPU_STATES:
            self._gpu_resident += n
        if old in _CPU_STATES and new not in _CPU_STATES:
            self._cpu_used -= n
        elif old not in _CPU_STATES and new in _CPU_STATES:
            self._cpu_used += n
        if old is _DISK:
            self._disk_used -= n
        elif new is _DISK:
            self._disk_used += n
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
            if old is _DISK:
                self._bump("disk_dropped_tokens", n)
            self._bump("dropped_tokens", n)
        elif new is _DISK:
            self._bump("demoted_tokens", n)
        elif old is _GPU:
            self._bump("swapped_out_tokens", n)  # copied, or suspended to CPU
        chunk.location = new
        conv_id = cache.conv_id
        left = self._frontier[old]
        if left.get(conv_id) is chunk:
            # The frontier of ``old`` left: the next chunk still there (in
            # a legal layout the very next one, if any) takes over.
            chunks = cache.chunks
            for i in range(chunk.index + 1, len(chunks)):
                if chunks[i].location is old:
                    left[conv_id] = chunks[i]
                    break
            else:
                del left[conv_id]
        entered = self._frontier[new]
        first = entered.get(conv_id)
        if first is None or chunk.index < first.index:
            entered[conv_id] = chunk
        if new is not _GPU:
            # Every other move is legal on its own; a promotion is legal
            # only once :meth:`commit_restore`'s whole sweep lands.
            cache.check_neighbours(chunk)
        if self.observer is not None:
            self.observer(cache, chunk, old, new)

    def _extend(self, cache: ConversationCache, tokens: int) -> None:
        """Append ``tokens`` fresh GPU tokens to a conversation: a partial
        tail takes what it can in place, and chunks are created only past
        it (a decode step does so once every ``chunk_size`` tokens)."""
        rest = tokens - cache.grow_tail(tokens)
        if rest:
            created = cache.extend_to(cache.total_tokens + rest)
            # With no GPU chunk yet, the first chunk created is the GPU
            # frontier.
            self._frontier[_GPU].setdefault(cache.conv_id, created[0])
        self._gpu_resident += tokens
        if not cache.pinned:
            self._evictable += tokens

    def _set_pinned(self, cache: ConversationCache, pinned: bool) -> None:
        if cache.pinned == pinned:
            return
        # One pass over the chunk list for both counts.
        gpu_cpu = gpu = 0
        for chunk in cache.chunks:
            location = chunk.location
            if location is _GPU:
                gpu += chunk.end - chunk.start
            elif location is _GPU_CPU:
                gpu_cpu += chunk.end - chunk.start
        if pinned:
            self._reclaimable -= gpu_cpu
            self._evictable -= gpu
        else:
            self._reclaimable += gpu_cpu
            self._evictable += gpu
        cache.pinned = pinned

    def _audit(self) -> None:
        """Re-derive every counter and the frontier index from scratch
        and assert consistency.

        Used by the test suite (including property-based tests) to prove
        the incremental accounting can never drift.
        """
        gpu = cpu = disk = reclaimable = evictable = 0
        for cache in self._conversations.values():
            gpu += cache.tokens_in(*_GPU_STATES)
            cpu += cache.tokens_in(*_CPU_STATES)
            disk += cache.tokens_in(_DISK)
            if not cache.pinned:
                reclaimable += cache.tokens_in(_GPU_CPU)
                evictable += cache.tokens_in(_GPU)
        assert gpu == self._gpu_resident, (gpu, self._gpu_resident)
        assert cpu == self._cpu_used, (cpu, self._cpu_used)
        assert disk == self._disk_used, (disk, self._disk_used)
        assert reclaimable == self._reclaimable, (reclaimable, self._reclaimable)
        assert evictable == self._evictable, (evictable, self._evictable)
        # Disk ledger: every demoted token is still on disk, was read
        # back, or was given up (dropped, or forgotten with its owner).
        stats = self.stats
        assert stats["demoted_tokens"] == (
            disk + stats["disk_hit_tokens"] + stats["disk_dropped_tokens"]
        ), (disk, stats)
        for cache in self._conversations.values():
            cache.check_layout()
        for loc, index in self._frontier.items():
            assert index.keys() <= self._conversations.keys(), (loc, index)
            for cache in self._conversations.values():
                # ``None`` on both sides when the conversation has no
                # chunk in ``loc``: absent from the index.
                assert index.get(cache.conv_id) is cache.frontier(loc), (
                    loc, index.get(cache.conv_id), cache
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
        disk = cache.tokens_in(_DISK)
        self._disk_used -= disk
        if disk:
            # Given up unread: keeps the disk ledger of ``_audit`` closed.
            self._bump("disk_dropped_tokens", disk)
        if not cache.pinned:
            self._reclaimable -= cache.tokens_in(_GPU_CPU)
            self._evictable -= cache.tokens_in(_GPU)
        for index in self._frontier.values():
            index.pop(conv_id, None)
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
            # One pass over the chunk list collects every count and list.
            gpu_hit = swap_in = disk_read = recompute = 0
            swap_in_chunks = plan.swap_in_chunks
            disk_read_chunks = plan.disk_read_chunks
            for chunk in cache.chunks:
                location = chunk.location
                tokens = chunk.end - chunk.start
                if location is _GPU or location is _GPU_CPU:
                    gpu_hit += tokens
                elif location is _CPU:
                    swap_in_chunks.append(chunk)
                    swap_in += tokens
                elif location is _DISK:
                    disk_read_chunks.append(chunk)
                    disk_read += tokens
                else:  # dropped
                    recompute += tokens
            plan.gpu_hit_tokens = gpu_hit
            plan.swap_in_tokens = swap_in
            plan.disk_read_tokens = disk_read
            plan.recompute_tokens = recompute
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
        self._make_room(plan.conv_id, plan.alloc_tokens, now)
        self._bump("lookup_tokens", plan.total_context - plan.new_tokens)
        self._bump("gpu_hit_tokens", plan.gpu_hit_tokens)
        self._bump("cpu_hit_tokens", plan.swap_in_tokens)
        self._bump("disk_hit_tokens", plan.disk_read_tokens)
        self._bump("recomputed_tokens", plan.recompute_tokens)
        cache = self.open(plan.conv_id, now)
        for chunk in cache.chunks:
            # Everything the request touches becomes GPU-resident: CPU
            # chunks are swapped in, disk chunks read back and promoted,
            # dropped chunks recomputed, and lazily-reclaimable copies are
            # promoted back to GPU-only (their CPU copy is invalidated on
            # reuse for simplicity).
            self._move(cache, chunk, _GPU)
        self._extend(cache, plan.new_tokens)
        cache.check_layout()
        return cache

    def append_tokens(self, conv_id: int, count: int, now: float) -> None:
        """Extend a pinned conversation's context (decode-step growth),
        reclaiming other conversations' copies scored at ``now`` when the
        GPU tier is full.  A refusal comes before any state changes.

        Raises:
            CacheCapacityError: if the GPU tier is full even after
                reclaiming copies.
            TailNotOnGpuError: the conversation's partial tail chunk is
                not on GPU.
        """
        if count <= 0:
            return
        cache = self._conversations[conv_id]
        # Before _make_room: grow_tail would refuse only after other
        # conversations' chunks had been reclaimed.
        cache.check_growable()
        self._make_room(conv_id, count, now)
        self._extend(cache, count)

    def append_decode_step(self, conv_ids: Sequence[int], now: float) -> int:
        """One decode step for a whole batch: grow each conversation by one
        token, in order.

        The step's deficit (growers minus free slots) is reclaimed first,
        from the copies of conversations outside the batch, through one
        victim stream scored at ``now``: for a batch of pinned
        conversations, exactly ``append_tokens(conv_id, 1, now)`` for
        each in order, with one scan instead of one per reclaimed chunk.

        Returns how many conversations grew: all of them, or the position
        of the first that did not fit, which is left as it was (the caller
        suspends it and calls again with the rest).

        Raises:
            TailNotOnGpuError: some conversation's partial tail chunk is not
                on GPU; checked for all of them before anything changes.
        """
        conversations = self._conversations
        caches = [conversations[conv_id] for conv_id in conv_ids]
        chunk_size = self.chunk_size
        for cache in caches:
            chunks = cache.chunks
            if chunks:
                tail = chunks[-1]
                if tail.location is not _GPU and tail.end - tail.start < chunk_size:
                    cache.check_growable()  # raises
        fits = len(caches)
        deficit = fits - self.gpu_free_tokens
        if deficit > 0:
            # Checked before anything moves: the batch's own copies are
            # never reclaimed for it, and whoever the rest cannot make
            # room for does not grow.
            available = self._reclaimable
            inside = [cache for cache in caches if not cache.pinned]
            for cache in inside:
                available -= cache.tokens_in(_GPU_CPU)
            if deficit > available:
                fits -= deficit - available
                deficit = available
            if deficit:
                exclude = [cache.conv_id for cache in inside]
                reclaimed = self.reclaim(deficit, now, exclude)
                assert reclaimed >= deficit, (reclaimed, deficit)
        # The GPU total stays in a local while tails grow in place, and is
        # written back around every call that reads or changes it.
        resident = self._gpu_resident
        for cache in caches[:fits]:
            chunks = cache.chunks
            if chunks:
                tail = chunks[-1]
                if tail.location is _GPU and tail.end - tail.start < chunk_size:
                    # ``_extend(cache, 1)`` when the tail takes the token.
                    tail.end += 1
                    resident += 1
                    if not cache.pinned:
                        self._evictable += 1
                    continue
            self._gpu_resident = resident
            self._extend(cache, 1)
            resident = self._gpu_resident
        self._gpu_resident = resident
        return fits

    def _make_room(self, conv_id: int, tokens: int, now: float) -> None:
        """Reclaim other conversations' copies until ``tokens`` more fit
        on the GPU for ``conv_id``."""
        deficit = tokens - self.gpu_free_tokens
        if deficit <= 0:
            return
        # Check before reclaiming anything: a partial reclaim mutates tier
        # state, so refusing *after* it would leave chunks evicted by an
        # operation that reports failure (non-atomic).  The conversation's
        # own copies are promoted or kept, never reclaimed for it.
        available = self._reclaimable
        cache = self._conversations.get(conv_id)
        if cache is not None and not cache.pinned:
            available -= cache.tokens_in(_GPU_CPU)
        if deficit > available:
            raise CacheCapacityError(
                f"{tokens} more GPU tokens do not fit "
                f"(free={self.gpu_free_tokens}, reclaimable={available})"
            )
        reclaimed = self.reclaim(deficit, now, (conv_id,))
        assert reclaimed >= deficit, (reclaimed, deficit)

    def invalidate_prefix(
        self,
        conv_id: int,
        locations: Tuple[ChunkLocation, ...],
        upto: Optional[Chunk] = None,
    ) -> int:
        """Recovery path for a failed or corrupt restore read: drop the
        conversation's chunks from the front through ``upto`` (through its
        last chunk in ``locations`` when ``None``) so the next restore plan
        recomputes those tokens from the raw-token store (§4.3.4 fallback).

        Stored chunks sit right after the ``DROPPED`` prefix, disk first,
        then CPU: invalidating ``(DISK,)`` spares the CPU chunks behind
        it, and invalidating ``(DISK, CPU)`` takes every disk chunk along
        (see :meth:`_drop_leading_prefix`).  Returns tokens invalidated
        (0 for an unknown conversation — recovery must not raise anew).
        """
        cache = self._conversations.get(conv_id)
        if cache is None:
            return 0
        if upto is None:
            upto = cache.rear(*locations)
        return self._drop_leading_prefix(cache, upto)

    def fall_back_to_recompute(
        self,
        tier: RestoreTier,
        conv_id: int,
        new_tokens: int,
        now: float,
        corrupt: int = 0,
        upto: Optional[Chunk] = None,
        **attrs: object,
    ) -> Tuple[CachePlan, int]:
        """The recompute rung of the restore fault ladder (§4.3.4).

        ``tier`` (a row of :data:`RESTORE_TIERS`) failed its restore: its
        transfer failed terminally, or, with ``corrupt``, that many of its
        chunks failed their checksum.  Counts the failure, gives the
        tier's chunks up through ``upto`` (all of them when ``None``) with
        :meth:`invalidate_prefix`, traces the fallback (``attrs``
        ride along on the event) and re-plans: ``alloc_tokens`` is
        unchanged (the tier's tokens become recompute tokens), so a
        capacity check made on the old plan stays valid.

        Returns ``(plan, tokens invalidated)``.
        """
        counters = self.fault_counters
        if corrupt:
            counters.corrupted_chunks += corrupt
        else:
            counters.bump(tier.failures)
        counters.recompute_fallbacks += 1
        invalidated = self.invalidate_prefix(conv_id, tier.locations, upto)
        tracer = self.tracer
        if tracer is not None:
            tracer.count("fault.recompute_fallbacks")
            tracer.instant(
                f"{tier.blamed.value}_fallback", t=now, track="cache", **attrs,
                conv_id=conv_id, tokens=invalidated, corrupt=bool(corrupt),
            )
        return self.plan_restore(conv_id, new_tokens), invalidated

    # ------------------------------------------------------------------
    # Eviction machinery
    # ------------------------------------------------------------------

    def _victims(
        self, location: ChunkLocation, now: float, exclude: Collection[int] = ()
    ) -> Iterator[Tuple[float, Chunk, ConversationCache]]:
        """Lazily yield ``(score, chunk, cache)`` eviction victims of
        ``location`` in ascending ``(score, conv_id)`` order.

        Only the *earliest* chunk of each unpinned conversation in the
        location (its frontier) is a candidate, which preserves the
        Figure 5 layout invariant during front-to-back eviction.  A
        conversation has one heap entry at a time, so comparison never
        reaches the chunk.

        The caller moves each yielded chunk out of ``location`` before
        asking for the next.  The location is scanned and scored once, on
        the first request; after a victim only its conversation's next
        frontier is scored and pushed.  That equals rescoring everything
        per victim because, while a stream is drawn from, ``now`` and every
        ``last_active`` and pin are fixed, no chunk enters ``location``,
        and a chunk leaves it only as a victim or by a front-drop of its
        own conversation: the nested pressure calls work on colder
        locations, and the observer mutates no manager state.  A front-drop
        between two pulls (:meth:`swap_out` drops a GPU victim, and the CPU
        chunks ahead of it, while its CPU stream is open) leaves a stale
        entry; it is skipped, and the conversation's current frontier, if
        any, takes its place.
        """
        # Bound once: calling an instance through its type's ``__call__``
        # slot costs about as much again as the bound method.
        scorer = self.scorer.__call__
        conversations = self._conversations
        frontier = self._frontier[location]
        # A conversation has one entry at a time, so a tie in score is
        # settled by its ``conv_id`` and never compares chunks.
        heap = [
            (scorer(chunk, cache.last_active, now), conv_id, chunk, cache)
            for conv_id, chunk in frontier.items()
            if not (cache := conversations[conv_id]).pinned and conv_id not in exclude
        ]
        heapq.heapify(heap)
        while heap:
            score, conv_id, chunk, cache = heap[0]
            if chunk.location is location:
                yield score, chunk, cache
                assert chunk.location is not location, f"victim {chunk!r} not evicted"
            successor = frontier.get(conv_id)
            if successor is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(
                    heap,
                    (scorer(successor, cache.last_active, now), conv_id, successor, cache),
                )

    def _evict(
        self,
        location: ChunkLocation,
        tokens_needed: int,
        now: float,
        step: Callable[[ConversationCache, Chunk, float, float], Optional[str]],
        exclude: Collection[int] = (),
        victims: Optional[Iterator[Tuple[float, Chunk, ConversationCache]]] = None,
        max_score: Optional[float] = None,
    ) -> int:
        """The one eviction loop: take victims of ``location`` (from the
        open stream ``victims``, else a new one) until ``tokens_needed``
        tokens have left it, the stream runs dry, or, with ``max_score``,
        the next victim scores at least that.  ``step(cache, chunk, score,
        now)`` moves each victim out and returns its trace ``outcome`` or
        ``None``; the loop traces it.  Returns tokens evicted.

        The budget is checked *before* the next pull: ``swap_out`` keeps
        one CPU stream open across many calls, and the stream asserts
        that each victim it yields has left before the next is pulled.
        Granularity ablation: a GPU victim takes its conversation's whole
        GPU context along, even past the target (the overshoot is the
        cost of coarse eviction the paper's design avoids).
        """
        if victims is None:
            victims = self._victims(location, now, exclude)
        whole = self.whole_conversation_eviction and location is _GPU
        freed = 0
        while freed < tokens_needed:
            victim = next(victims, None)
            if victim is None or (max_score is not None and victim[0] >= max_score):
                break
            score, chunk, cache = victim
            for chunk in cache.chunks_in(location) if whole else (chunk,):
                outcome = step(cache, chunk, score, now)
                freed += chunk.num_tokens
                tracer = self.tracer
                if tracer is not None:
                    attrs = {} if outcome is None else {"outcome": outcome}
                    tracer.instant(
                        _EVICT_EVENTS[location], t=now, track="cache",
                        conv_id=cache.conv_id, chunk=chunk.index,
                        tokens=chunk.num_tokens, **attrs, score=score,
                    )
        return freed

    def swap_out(self, tokens_needed: int, now: float) -> List[Chunk]:
        """Make ``tokens_needed`` GPU tokens obtainable by copying GPU-only
        chunks to the CPU tier (ahead-of-time swap-out, §4.3.2) — and, when
        the CPU tier is saturated, by dropping the cheapest chunks outright.

        Copied chunks move ``GPU -> GPU_CPU``; their GPU slots stay
        occupied until :meth:`reclaim`.  Progress is counted as
        reclaimable tokens plus tokens freed by drops: each victim adds its
        own tokens either way.  Returns the chunks copied, in order, so the
        engine can model the PCIe traffic.
        """
        copied: List[Chunk] = []
        if self._evictable == 0:
            # Every GPU frontier belongs to a pinned conversation (a chunk
            # holds at least one token): there is no victim to scan for.
            return copied
        # One CPU victim stream for the whole call, scanned when a copy
        # first finds the CPU tier full: every later shortfall continues
        # it instead of rescanning (exact, see :meth:`_victims`).
        cpu_victims = self._victims(_CPU, now)

        def step(cache: ConversationCache, chunk: Chunk, score: float, now: float) -> str:
            return self._swap_out_chunk(cache, chunk, now, copied, cpu_victims)

        self._evict(_GPU, tokens_needed - self._reclaimable, now, step)
        return copied

    def _swap_out_chunk(
        self,
        cache: ConversationCache,
        chunk: Chunk,
        now: float,
        copied: List[Chunk],
        cpu_victims: Iterator[Tuple[float, Chunk, ConversationCache]],
    ) -> str:
        """Move one GPU chunk toward the CPU tier: copied, or dropped with
        the conversation's leading prefix through it (the tokens recompute
        on return, §4.3.4, so no served output is ever lost).  Either way
        the chunk's GPU slots have been made reclaimable or free
        (guaranteed progress).  Returns ``"copied"`` or ``"dropped"``."""
        copy = self.cpu_capacity_tokens > 0  # else GPU-cache-only variant
        if copy and self.fault_plan is not None and self.fault_plan.fires(
            FaultSite.SWAP_OUT
        ):
            self.fault_counters.swap_out_failures += 1  # the D2H copy failed
            copy = False
        if copy and self.cpu_free_tokens < chunk.num_tokens:
            self._evict(
                _CPU, chunk.num_tokens - self.cpu_free_tokens, now,
                self._demote_or_drop, victims=cpu_victims,
            )
            # Still short: the CPU tier is saturated with data that may
            # not be dropped (pinned conversations' chunks, or copies
            # backing reclaimable GPU slots).
            copy = self.cpu_free_tokens >= chunk.num_tokens
        if copy:
            self._move(cache, chunk, _GPU_CPU)
            copied.append(chunk)
            return "copied"
        self._drop_leading_prefix(cache, chunk)
        return "dropped"

    def _drop_leading_prefix(
        self, cache: ConversationCache, upto: Optional[Chunk]
    ) -> int:
        """Grow a conversation's ``DROPPED`` prefix through ``upto``: the
        only way a cached layout shrinks (Figure 5), and the only code
        that gives chunks up for §4.3.4 recomputation.

        Every chunk from the front through ``upto`` that still holds data
        is dropped with it, whatever tier it is in — a surviving ``DISK``
        or ``CPU`` chunk ahead of a dropped one would break the monotone
        layout.  ``GPU_CPU`` chunks lose both their GPU slots and their
        CPU copy.  Returns tokens dropped (0 when ``upto`` is ``None``).
        """
        if upto is None:
            return 0
        dropped = 0
        for chunk in cache.chunks[: upto.index + 1]:
            if chunk.location is not _DROPPED:
                dropped += chunk.num_tokens
                self._move(cache, chunk, _DROPPED)
        return dropped

    def reclaim(
        self, tokens_needed: int, now: float, exclude: Collection[int] = ()
    ) -> int:
        """Actually free GPU slots of already-copied chunks
        (``GPU_CPU -> CPU``), none of the conversations in ``exclude``.
        Returns tokens freed (may fall short)."""

        def step(cache: ConversationCache, chunk: Chunk, score: float, now: float) -> None:
            self._move(cache, chunk, _CPU)
            tracer = self.tracer
            if tracer is not None:
                tracer.count("cache.reclaimed_tokens", chunk.num_tokens)

        return self._evict(_GPU_CPU, tokens_needed, now, step, exclude)

    def drop_from_cpu(self, tokens_needed: int, now: float) -> int:
        """Free CPU-tier space under memory pressure: each victim, in
        ascending retention score, is *demoted* to the disk tier or dropped
        (see :meth:`_demote_or_drop`).  Returns tokens freed."""
        return self._evict(_CPU, tokens_needed, now, self._demote_or_drop)

    def _demote_or_drop(
        self, cache: ConversationCache, chunk: Chunk, score: float, now: float
    ) -> str:
        """Send one CPU frontier chunk down the hierarchy.

        The chunk lands on disk iff the tier exists and room exists or
        can be made by evicting *strictly lower-scored* disk chunks — a
        chunk never displaces disk residents worth more than itself.
        Otherwise it is dropped for §4.3.4 recomputation.

        Returns ``"demoted"`` or ``"dropped"``.
        """
        if self.disk_capacity_tokens > 0 and chunk.num_tokens <= self.disk_capacity_tokens:
            if self.disk_free_tokens < chunk.num_tokens:
                self.drop_from_disk(
                    chunk.num_tokens - self.disk_free_tokens,
                    now,
                    max_score=score,
                )
            if self.disk_free_tokens >= chunk.num_tokens:
                self._move(cache, chunk, _DISK)
                return "demoted"
        # Takes any of the conversation's chunks still on disk *ahead* of
        # this one with it.
        self._drop_leading_prefix(cache, chunk)
        return "dropped"

    def drop_from_disk(
        self, tokens_needed: int, now: float, max_score: Optional[float] = None
    ) -> int:
        """Evict disk-tier chunks (``DISK -> DROPPED``), cheapest first.

        With ``max_score`` set (the displacement path of
        :meth:`_demote_or_drop`), only chunks scoring *strictly below* it
        are evicted — the incoming chunk may not displace disk residents
        the policy values at least as much.  Returns tokens freed.
        """

        def step(cache: ConversationCache, chunk: Chunk, score: float, now: float) -> None:
            # A disk frontier has only dropped chunks ahead of it.
            self._move(cache, chunk, _DROPPED)

        return self._evict(
            _DISK, tokens_needed, now, step, max_score=max_score
        )

    # ------------------------------------------------------------------
    # Capacity orchestration for the scheduler
    # ------------------------------------------------------------------

    def ensure_capacity(self, tokens_needed: int, now: float) -> List[Chunk]:
        """Make ``tokens_needed`` GPU tokens obtainable, swapping out (and,
        if necessary, dropping) as required.

        Returns chunks newly copied to the CPU so the caller can model the
        transfer.  After this call ``gpu_available_tokens >=
        tokens_needed`` unless even total capacity is insufficient, in
        which case :class:`CacheCapacityError` is raised.
        """
        if tokens_needed > self.gpu_capacity_tokens:
            raise CacheCapacityError(
                f"request needs {tokens_needed} tokens; GPU capacity is "
                f"{self.gpu_capacity_tokens}"
            )
        if self.gpu_available_tokens >= tokens_needed:
            return []
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
        # They precede all GPU chunks, so each move keeps the layout legal,
        # and so does each of the front-to-back moves below.
        for chunk in cache.chunks_in(_GPU_CPU):
            self._move(cache, chunk, _CPU)
        gpu_tokens = cache.tokens_in(_GPU)
        room = 0 if self.cpu_capacity_tokens == 0 else self.cpu_free_tokens
        dropped = 0
        upto: Optional[Chunk] = None
        if (
            gpu_tokens > 0
            and room > 0
            and self.fault_plan is not None
            and self.fault_plan.fires(FaultSite.SWAP_OUT)
        ):
            # The suspension's batched D2H copy failed: degrade every chunk
            # to a drop; the suspended request recomputes them on resume.
            self.fault_counters.swap_out_failures += 1
            dropped, upto = gpu_tokens, cache.rear(_GPU)
        else:
            # When the CPU tier cannot hold everything, drop the
            # conversation's *leading* chunks (cheapest to recompute,
            # §4.3.1) until the GPU chunks that remain fit.  The dropped
            # part grows from the very front — Figure 5 allows nothing
            # else — so a stored prefix goes first and its CPU chunks'
            # slots count as room.
            for chunk in cache.chunks:
                if gpu_tokens - dropped <= room:
                    break
                if chunk.location is _GPU:
                    dropped += chunk.num_tokens
                elif chunk.location is _CPU:
                    room += chunk.num_tokens
                upto = chunk
        self._drop_leading_prefix(cache, upto)
        copied = gpu_tokens - dropped
        for chunk in cache.chunks_in(_GPU):
            self._move(cache, chunk, _CPU)
        return copied, dropped
