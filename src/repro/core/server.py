"""A functional stateful chat server: Pensieve end-to-end on real tensors.

:class:`StatefulChatServer` is the executable counterpart of the simulated
:class:`~repro.core.engine.PensieveEngine`: it serves multi-turn
conversations through the numpy :class:`~repro.model.PagedTransformer`,
physically moving KV data exactly as the cache manager decides —

- finished turns leave their KV-tokens in GPU pages (stateful serving);
- under GPU pressure, leading chunks are *copied* to the CPU store
  (§4.3.2), their pages vacated only on reclaim;
- under CPU pressure, leading chunks are demoted to the disk store (when
  a disk tier is configured and the cross-tier retention score approves)
  or dropped and later *recomputed* from the raw-token persistent store
  via the Figure 8 sub-request path;
- returning conversations swap their CPU chunks back into (different!)
  GPU pages, exercising the non-contiguous multi-token attention kernel.

Because every movement is real, tests can assert the headline correctness
property: a server under heavy eviction produces *exactly* the same output
tokens as one with abundant memory.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import RESTORE_TIERS
from repro.core.eviction import LruPolicy
from repro.faults import (
    FaultCounters,
    FaultPlan,
    FaultSite,
    RequestFaultedError,
    RetryPolicy,
    attempt_with_retries,
)
from repro.kvcache.chunks import Chunk, ChunkLocation, ConversationCache
from repro.kvcache.manager import (
    EvictionScorer,
    TierPlacement,
    TieredCacheManager,
)
from repro.kvcache.pages import BlockTable, PagePool
from repro.kvcache.storage import CpuChunkStore, DiskChunkStore, KVStorage
from repro.kernels.packed_cache import DecodeSlotSource
from repro.model.config import ModelConfig, tiny_opt_config
from repro.model.sampling import GREEDY, SamplingParams, sample_token
from repro.model.transformer import ForwardRequest, PagedTransformer
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.workload.tokenizer import SimpleTokenizer


@dataclass
class _Turn:
    """One conversation's turn inside a unified batch."""

    conv_id: int
    prompt_ids: List[int]
    table: BlockTable
    dropped: int          #: leading tokens recomputed this turn (Figure 8)
    input_ids: List[int]  #: recomputed raw tokens + the new prompt
    span: int             #: tracer handle of the ``request`` span
    phase: int            #: tracer handle of its open ``prefill``/``decode`` child
    generated: List[int] = field(default_factory=list)


class StatefulChatServer:
    """Serve multi-turn chats with a tiered KV cache over real tensors.

    Args:
        config: model configuration (tiny presets recommended; weights are
            random, so this demonstrates systems behaviour, not language
            quality).
        gpu_capacity_tokens: GPU-tier size in KV-token slots.
        cpu_capacity_tokens: CPU-tier size (0 = GPU-cache-only variant).
        disk_capacity_tokens: disk (NVMe) tier size behind the CPU; 0
            (the default) disables the tier, reproducing the two-tier
            behaviour exactly.
        placement: cross-tier placement policy deciding whether a chunk
            leaving the CPU is demoted to disk or dropped (see
            :class:`~repro.core.eviction.TieredPlacementPolicy`);
            ``None`` demotes whenever the disk tier has room.
        chunk_size: eviction granularity; must be a multiple of
            ``page_size``.
        page_size: tokens per GPU page.
        scorer: eviction policy (default LRU — the functional layer does
            not need the profiled cost table, though one can be passed).
        seed: model weight seed.
        max_conversations: bound on concurrently tracked conversations,
            used to size the page pool's internal-fragmentation allowance
            (each conversation wastes at most one partially-filled tail
            page, exactly like a vLLM sequence).
        fault_plan: optional seeded failure schedule (chaos testing); the
            server recovers along the retry → recompute-fallback →
            per-request-failure ladder, counting into ``fault_counters``.
        retry_policy: bounded-backoff budget for transient faults.
        use_fast_paths: dispatch forward passes through the vectorized
            kernel layer and the incremental decode packing cache
            (default on; off = the per-layer tiled, per-request oracle
            the tests and the serving benchmark compare against).
        backend: a validated name with exactly one legal value,
            ``"paged"`` (see :mod:`repro.backends`), and no environment
            fallback.  It survives only because
            ``benchmarks/serving/workloads.py`` passes it and a PR may
            not edit the benchmark it is measured by; once a
            benchmark PR drops the argument there, delete it here.
    """

    def __init__(
        self,
        config: Optional[ModelConfig] = None,
        gpu_capacity_tokens: int = 512,
        cpu_capacity_tokens: int = 2048,
        disk_capacity_tokens: int = 0,
        placement: Optional[TierPlacement] = None,
        chunk_size: int = 16,
        page_size: int = 8,
        scorer: Optional[EvictionScorer] = None,
        seed: int = 0,
        tokenizer: Optional[SimpleTokenizer] = None,
        max_conversations: int = 64,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        use_fast_paths: bool = True,
        backend: str = "paged",
        tracer: Optional[NullTracer] = None,
    ) -> None:
        if chunk_size % page_size != 0:
            raise ValueError(
                f"chunk_size ({chunk_size}) must be a multiple of "
                f"page_size ({page_size}) so evictions stay page-aligned"
            )
        if gpu_capacity_tokens % page_size != 0:
            raise ValueError("gpu_capacity_tokens must be a multiple of page_size")
        self.config = config or tiny_opt_config()
        self.max_conversations = max_conversations
        # The manager accounts logical tokens; the pool additionally loses
        # up to one page per conversation to tail fragmentation.
        pool_tokens = gpu_capacity_tokens + page_size * max_conversations
        self.pool = PagePool(
            num_pages=pool_tokens // page_size, page_size=page_size
        )
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy or RetryPolicy()
        #: Degradation counters (same schema as the simulated engine's
        #: ``metrics.faults``); all-zero when no fault plan is armed.
        self.fault_counters = FaultCounters()
        #: Structured errors of individually-failed requests, in order.
        self.failures: List[RequestFaultedError] = []
        self.storage = KVStorage(
            self.config, num_slots=self.pool.capacity_tokens
        )
        self.cpu_store = CpuChunkStore(
            cpu_capacity_tokens, fault_plan=fault_plan
        )
        self.disk_store = DiskChunkStore(
            disk_capacity_tokens, fault_plan=fault_plan
        )
        self.model = PagedTransformer(
            self.config,
            self.storage,
            seed=seed,
            use_fast_paths=use_fast_paths,
            backend=backend,
        )
        self.tokenizer = tokenizer or SimpleTokenizer(self.config.vocab_size)
        self.manager = TieredCacheManager(
            gpu_capacity_tokens=gpu_capacity_tokens,
            cpu_capacity_tokens=cpu_capacity_tokens,
            disk_capacity_tokens=disk_capacity_tokens,
            placement=placement,
            chunk_size=chunk_size,
            scorer=scorer or LruPolicy(),
            fault_plan=fault_plan,
            fault_counters=self.fault_counters,
        )
        self.manager.observer = self._on_transition
        self._tables: Dict[int, BlockTable] = {}
        #: The "persistent store" of Figure 7: every conversation's raw
        #: token ids, used to recompute dropped chunks.
        self.raw_tokens: Dict[int, List[int]] = {}
        self._clock = 0.0
        # Dedicated sampling stream, independent of the weight seed.
        self._sampling_rng = np.random.default_rng(seed + 104729)
        # Shared system-prompt state (paper footnote 3): prefilled once,
        # pinned forever, prepended to every conversation's context.
        self._system_slots: List[int] = []
        self._system_slots_arr: np.ndarray = np.empty(0, dtype=np.int64)
        self._system_ids: List[int] = []
        # Deferred D2H copies: inside a ``_coalesce_copies`` scope,
        # GPU->CPU-bound chunks queue ``(conv_id, chunk_index, slots)``
        # here and cross as ONE stacked gather + batched insert at scope
        # exit.  ``None`` = no scope active.
        self._pending_copies: Optional[List[Tuple[int, int, np.ndarray]]] = None
        #: Observability sink (``repro.obs``); the null default keeps the
        #: serving path allocation-free when tracing is off.
        self.tracer = NULL_TRACER
        self.set_tracer(tracer if tracer is not None else NULL_TRACER)

    def set_tracer(self, tracer: NullTracer) -> None:
        """Attach a tracer, propagating it to the cache tiers."""
        self.tracer = tracer
        self.manager.tracer = tracer
        self.cpu_store.tracer = tracer
        self.disk_store.tracer = tracer

    # ------------------------------------------------------------------
    # Physical mirror of the manager's tier transitions
    # ------------------------------------------------------------------

    def _on_transition(
        self,
        cache: ConversationCache,
        chunk: Chunk,
        old: ChunkLocation,
        new: ChunkLocation,
    ) -> None:
        table = self._tables[cache.conv_id]
        conv_id, index = cache.conv_id, chunk.index
        if old is ChunkLocation.GPU and new is ChunkLocation.GPU_CPU:
            # Ahead-of-time copy: data lands in the CPU store, pages stay.
            self._queue_copy(conv_id, chunk, table)
        elif old is ChunkLocation.GPU_CPU and new is ChunkLocation.CPU:
            # Reclaim: the pages are handed back (data only in CPU now).
            # A still-pending deferred copy stays valid: the KVStorage
            # rows are untouched until the pages are *re-allocated*,
            # which cannot happen inside a coalescing scope.
            table.vacate_front(chunk.num_tokens)
        elif old is ChunkLocation.GPU_CPU and new is ChunkLocation.GPU:
            # Promotion on reuse: invalidate the (stale-to-be) CPU copy.
            self._land_copy(conv_id, index)
            self.cpu_store.drop(conv_id, index)
        elif old is ChunkLocation.GPU and new is ChunkLocation.CPU:
            # Suspension path: copy and vacate in one go.
            self._queue_copy(conv_id, chunk, table)
            table.vacate_front(chunk.num_tokens)
        elif old is ChunkLocation.GPU and new is ChunkLocation.DROPPED:
            table.vacate_front(chunk.num_tokens)
        elif old is ChunkLocation.GPU_CPU and new is ChunkLocation.DROPPED:
            # Pressure fallback: discard both the GPU slots and the copy.
            self._land_copy(conv_id, index)
            self.cpu_store.drop(conv_id, index)
            table.vacate_front(chunk.num_tokens)
        elif old is ChunkLocation.CPU and new is ChunkLocation.DROPPED:
            self._land_copy(conv_id, index)
            # The entry may already be gone when a partially-popped swap-in
            # prefix is being invalidated after a corrupt read.
            if self.cpu_store.contains(conv_id, index):
                self.cpu_store.drop(conv_id, index)
        elif old is ChunkLocation.CPU and new is ChunkLocation.DISK:
            # Demotion under host-memory pressure: the bytes move to the
            # disk store together with their *insertion-time* checksum —
            # no re-verify on the way down, so corruption acquired in host
            # DRAM is still caught at the eventual disk read (end-to-end
            # integrity).
            self._land_copy(conv_id, index)
            self.cpu_store.transfer_to(self.disk_store, conv_id, index)
        elif old is ChunkLocation.DISK and new is ChunkLocation.DROPPED:
            # Disk eviction or post-read invalidation; the entry may
            # already be gone when a popped disk prefix is invalidated
            # after a corrupt read.
            if self.disk_store.contains(conv_id, index):
                self.disk_store.drop(conv_id, index)
        elif new is ChunkLocation.GPU:
            # From DISK or CPU: ``_restore_context`` moves the whole stored
            # prefix in one batch per tier (restore_front needs it handled
            # at once).  From DROPPED: recomputation fills the restored
            # slots during prefill.  Nothing here.
            pass
        else:  # pragma: no cover - no other legal transition exists
            raise AssertionError(f"unexpected transition {old} -> {new}")

    # ------------------------------------------------------------------
    # Coalesced D2H copy path (stacked gather + batched CPU-store insert)
    # ------------------------------------------------------------------

    def _queue_copy(self, conv_id: int, chunk: Chunk, table: BlockTable) -> None:
        """Queue one chunk's D2H copy.  The slots are captured now —
        nothing can reallocate them before the flush — and the data
        crosses with the enclosing scope's batched transfer; with no
        scope open the chunk is a scope, and a batch, of one."""
        with self._coalesce_copies():
            self._pending_copies.append(
                (conv_id, chunk.index, table.slots_array(chunk.start, chunk.end))
            )

    def _land_copy(self, conv_id: int, chunk_index: int) -> None:
        """Flush now if this chunk's copy is still queued, so the store
        (and its counters) see its put before the drop or demotion that
        is about to follow."""
        if self._pending_copies and any(
            c == conv_id and i == chunk_index for c, i, _ in self._pending_copies
        ):
            self._flush_pending_copies()

    def _flush_pending_copies(self) -> None:
        """Move every deferred chunk copy to the CPU store as ONE stacked
        all-layer gather and one batched insert."""
        pending = self._pending_copies
        if not pending:
            return
        self._pending_copies = []
        data = self.storage.read_slots_stacked(
            [slots for _, _, slots in pending]
        )
        self.cpu_store.put_many(
            [
                (conv_id, chunk_index, k, v)
                for (conv_id, chunk_index, _), (k, v) in zip(pending, data)
            ]
        )

    @contextmanager
    def _coalesce_copies(self) -> Iterator[None]:
        """Scope within which ahead-of-time D2H chunk copies coalesce.

        Tier transitions fired by the manager inside the scope queue
        their copies instead of moving one chunk at a time; the flush at
        scope exit performs a single stacked transfer.  Deferral is safe
        because no GPU page can be re-allocated before the flush: page
        allocation (``restore_front`` / ``append_tokens``) only happens
        after the capacity-making calls the scope wraps.  Re-entrant —
        an inner scope defers to the outer one's flush.
        """
        if self._pending_copies is not None:
            yield
            return
        self._pending_copies = []
        try:
            yield
        finally:
            try:
                self._flush_pending_copies()
            finally:
                self._pending_copies = None

    # ------------------------------------------------------------------
    # Shared system prompt (paper footnote 3)
    # ------------------------------------------------------------------

    #: Reserved conversation id used to pin the system prompt's slots in
    #: the manager's accounting.
    SYSTEM_CONV_ID = -1

    @property
    def system_prompt_tokens(self) -> int:
        return len(self._system_ids)

    def set_system_prompt(
        self,
        text: str = "",
        prompt_ids: Optional[Sequence[int]] = None,
    ) -> None:
        """Designate a common system prompt whose KV state is computed
        once and shared (read-only) by every conversation.

        The paper notes that a chatbot's common system prompt "can be
        handled by explicitly designating the system prompt state as
        reusable" — this is that mechanism.  Must be called before any
        conversation is served.

        Raises:
            RuntimeError: if conversations already exist or a system
                prompt was already set.
            ValueError: on an empty prompt.
        """
        if self._system_ids:
            raise RuntimeError("system prompt already set")
        if self._tables:
            raise RuntimeError("set_system_prompt must precede all chats")
        if prompt_ids is None:
            prompt_ids = self.tokenizer.encode(text)
        ids = list(prompt_ids)
        if not ids:
            raise ValueError("empty system prompt")

        # Pin the slots in the manager's accounting via a reserved,
        # permanently-pinned conversation so eviction can never touch them.
        self.manager.open(self.SYSTEM_CONV_ID, 0.0)
        plan = self.manager.plan_restore(self.SYSTEM_CONV_ID, len(ids))
        self.manager.commit_restore(plan, 0.0)

        table = BlockTable(self.pool)
        table.append_tokens(len(ids))
        self._tables[self.SYSTEM_CONV_ID] = table
        self._system_slots = table.slots(0, len(ids))
        self._system_slots_arr = np.asarray(self._system_slots, dtype=np.int64)
        self._system_ids = ids

        # Prefill once; every later request reuses the cached KV rows.
        request = ForwardRequest(
            input_ids=np.asarray(ids, dtype=np.int64),
            context_slots=self._system_slots,
        )
        self.model.forward([request])

    def _full_context(self, table: BlockTable) -> np.ndarray:
        """System-prompt slots followed by the conversation's own slots."""
        return np.concatenate(
            [self._system_slots_arr, table.slots_array(0, table.length)]
        )

    def _decode_request(
        self, conv_id: int, table: BlockTable, last_token: int
    ) -> ForwardRequest:
        """One generation step's request.  With the packing cache active
        the context is passed *by reference* (a slot view keyed on the
        conversation), so the transformer's incremental decode path packs
        only the slots that changed since the previous step instead of
        re-materialising the whole context array."""
        input_ids = np.asarray([last_token], dtype=np.int64)
        shared = len(self._system_slots)
        if self.model.decode_cache is not None:
            return ForwardRequest(
                input_ids=input_ids,
                context_slots=None,
                shared_prefix=shared,
                slot_view=DecodeSlotSource(
                    key=conv_id, table=table, prefix=self._system_slots_arr
                ),
            )
        return ForwardRequest(
            input_ids=input_ids,
            context_slots=self._full_context(table),
            shared_prefix=shared,
        )

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------

    def _attempt(self, site: FaultSite) -> Tuple[bool, int]:
        """Try one faultable operation with bounded backoff on the server
        clock; returns ``(success, attempts)``."""
        if self.fault_plan is None:
            return True, 1
        ok, retries, delay = attempt_with_retries(
            self.fault_plan, site, self.retry_policy, tracer=self.tracer
        )
        self._clock += delay
        self.fault_counters.retries += retries
        return ok, 1 + retries

    def _abort_conversation(self, conv_id: int) -> None:
        """Discard every trace of a conversation after an unrecoverable
        mid-decode fault, leaving the server consistent for other convs.

        The conversation is lost (its next turn starts fresh) — the
        documented last rung of the degradation ladder.
        """
        self.manager.forget(conv_id)
        table = self._tables.pop(conv_id, None)
        if table is not None:
            table.release()
        if self.model.decode_cache is not None:
            # A recycled conversation id must never alias the dead row.
            self.model.decode_cache.drop(conv_id)
        # ``forget`` bypasses the observer, so mirror the cleanup here.
        for store in (self.cpu_store, self.disk_store):
            for chunk_index in store.chunks_of(conv_id):
                store.drop(conv_id, chunk_index)
        self.raw_tokens.pop(conv_id, None)

    def _fail_request(
        self, conv_id: int, site: FaultSite, attempts: int
    ) -> RequestFaultedError:
        error = RequestFaultedError(conv_id=conv_id, site=site, attempts=attempts)
        self.fault_counters.degraded_requests += 1
        self.failures.append(error)
        return error

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def chat(
        self,
        conv_id: int,
        user_text: str = "",
        prompt_ids: Optional[Sequence[int]] = None,
        max_new_tokens: int = 16,
        sampling: SamplingParams = GREEDY,
    ) -> List[int]:
        """Serve one turn: the :meth:`chat_batch` batch of one.

        Args:
            conv_id: conversation identifier.
            user_text: the user's message (tokenised internally); ignored
                if ``prompt_ids`` is given.
            prompt_ids: raw prompt token ids (for tests/scripted runs).
            max_new_tokens: number of tokens to generate (at least 1).
            sampling: decoding strategy (greedy by default; stochastic
                strategies draw from the server's seeded sampling stream).

        Returns:
            The generated token ids (decode with ``server.tokenizer``).

        Raises:
            RequestFaultedError: if an injected fault outlives its retry
                budget; the error is structured (conversation, site,
                attempts) and the server remains consistent for every
                other conversation.
        """
        if prompt_ids is None:
            prompt_ids = self.tokenizer.encode(user_text)
        recorded = len(self.failures)
        generated = self.chat_batch([(conv_id, prompt_ids)], max_new_tokens, sampling)
        if conv_id not in generated:
            raise self.failures[recorded]
        return generated[conv_id]

    def _restore_context(
        self, conv_id: int, prompt_ids: List[int], now: float
    ) -> Tuple[BlockTable, int, List[int]]:
        """Bring a conversation's context fully GPU-resident for a turn.

        Pins the conversation, makes room (possibly evicting others),
        physically swaps CPU chunks back in, allocates slots for the new
        prompt, and returns ``(block_table, dropped, input_ids)`` where
        ``input_ids`` is the Figure 8(a) concatenation of recomputed raw
        tokens and the new prompt.
        """
        history = self.raw_tokens.setdefault(conv_id, [])
        table = self._tables.get(conv_id)
        if table is None:
            table = self._tables.setdefault(conv_id, BlockTable(self.pool))

        # Pin first so capacity-making below cannot evict this
        # conversation's own chunks out from under the plan.
        self.manager.open(conv_id, now)
        # Transient GPU-allocation fault gate, retried with backoff on the
        # server clock.  A terminal failure degrades this request alone —
        # nothing was mutated yet, so unpinning restores the status quo.
        ok, attempts = self._attempt(FaultSite.GPU_ALLOC)
        if not ok:
            cache = self.manager.conversation(conv_id)
            if cache is not None and cache.total_tokens > 0:
                # Prior turns' context survives the failed turn, unpinned.
                self.manager.close(conv_id, now)
            else:
                self._abort_conversation(conv_id)
            raise self._fail_request(conv_id, FaultSite.GPU_ALLOC, attempts)
        plan = self.manager.plan_restore(conv_id, len(prompt_ids))

        # Transfer faults, coldest tier first (NVMe read, then PCIe
        # swap-in): a terminal failure falls back to recomputing that
        # tier's chunks (§4.3.4).  ``alloc_tokens`` is unchanged (their
        # tokens become recompute tokens), so the capacity work below is
        # identical either way.  A failed disk read leaves the CPU chunks
        # behind it to swap in normally; a failed swap-in necessarily
        # takes any preceding disk chunks with it (Figure 5: the dropped
        # prefix only grows from the front).
        counters = self.fault_counters
        for tier in RESTORE_TIERS:
            if getattr(plan, tier.chunks) and not self._attempt(tier.site)[0]:
                counters.bump(tier.failures)
                counters.recompute_fallbacks += 1
                getattr(self.manager, tier.invalidate)(conv_id)
                plan = self.manager.plan_restore(conv_id, len(prompt_ids))

        # Make room (may evict other conversations — the observer moves
        # their tensors; reclaim happens lazily inside commit_restore).
        # Ahead-of-time copies fired in here coalesce into one stacked
        # gather + batched CPU-store insert at scope exit.
        with self._coalesce_copies():
            self.manager.ensure_capacity(plan.alloc_tokens, now)
            self.manager.reclaim(
                max(0, plan.alloc_tokens - self.manager.gpu_free_tokens),
                now,
                exclude=conv_id,
            )

        # Pull the stored chunks' data out of the disk and CPU stores
        # *before* commit flips their state (the observer drops CPU
        # entries on promotion of GPU_CPU chunks only; DISK->GPU and
        # CPU->GPU data is handled here).  Each tier's chunks move in ONE
        # coalesced batch; each chunk is still CRC re-verified
        # individually against its insertion-time checksum — for a
        # disk-resident chunk that checksum dates from its original GPU
        # departure, so the check spans the whole CPU->disk journey.
        # Capture ranges now: commit_restore may extend the partial tail
        # chunk in place, but the stored data covers the pre-extension
        # token range.
        by_index: Dict[int, Chunk] = {}
        popped: List[Tuple[int, Tuple[np.ndarray, np.ndarray]]] = []
        corrupt: List[int] = []
        for tier, store in zip(RESTORE_TIERS, (self.disk_store, self.cpu_store)):
            chunks = getattr(plan, tier.chunks)
            if chunks:
                by_index.update((chunk.index, chunk) for chunk in chunks)
                tier_popped, tier_corrupt = store.pop_many(
                    conv_id, [chunk.index for chunk in chunks]
                )
                popped += tier_popped
                corrupt += tier_corrupt
        counters.corrupted_chunks += len(corrupt)
        restored_data = [
            (by_index[index].start, by_index[index].end, data)
            for index, data in popped
        ]
        if corrupt:
            # Checksum caught corruption: invalidate the stored (disk +
            # CPU) prefix through the last corrupt chunk — the Figure 5
            # layout only lets the DROPPED prefix grow, so already-popped
            # predecessors are discarded too — and recompute those tokens.
            # Disk chunks precede CPU chunks and each pop preserves
            # request order, so ``corrupt`` ascends.
            corrupt_upto = by_index[corrupt[-1]]
            counters.recompute_fallbacks += 1
            self.manager.invalidate_cpu_prefix(conv_id, upto=corrupt_upto)
            restored_data = [
                item for item in restored_data if item[0] >= corrupt_upto.end
            ]
            plan = self.manager.plan_restore(conv_id, len(prompt_ids))
        if self.tracer.enabled:
            self.tracer.instant(
                "restore", t=now, track="server", conv_id=conv_id,
                gpu_hits=plan.gpu_hit_tokens, swap_in=plan.swap_in_tokens,
                disk_read=plan.disk_read_tokens,
                recompute=plan.recompute_tokens, new=plan.new_tokens,
            )
        self.manager.commit_restore(plan, now)

        # Physically restore the vacated prefix: dropped tokens get fresh
        # (empty) slots to be filled by recomputation; disk and CPU tokens
        # get fresh slots filled from their stores.
        restore_tokens = (
            plan.recompute_tokens + plan.swap_in_tokens + plan.disk_read_tokens
        )
        if restore_tokens:
            table.restore_front(restore_tokens)
        if restored_data:
            # One stacked scatter instead of a write per chunk.
            self.storage.write_slots_stacked(
                [table.slots_array(start, end) for start, end, _ in restored_data],
                [data for _, _, data in restored_data],
            )
        table.append_tokens(len(prompt_ids))

        # Figure 8(a): recomputed raw tokens are prepended to the prompt.
        dropped = plan.recompute_tokens
        input_ids = history[:dropped] + prompt_ids
        return table, dropped, input_ids

    def _grow(self, conv_id: int, table: BlockTable, now: float) -> None:
        """Extend a running conversation by one decode token, swapping
        other conversations out of the way if the GPU tier is full.

        Raises:
            RequestFaultedError: if an injected allocation fault outlives
                its retry budget mid-decode; the conversation is discarded
                (the last rung of the degradation ladder) and the server
                stays consistent for every other conversation.
        """
        ok, attempts = self._attempt(FaultSite.GPU_ALLOC)
        if not ok:
            self._abort_conversation(conv_id)
            raise self._fail_request(conv_id, FaultSite.GPU_ALLOC, attempts)
        if self.manager.gpu_available_tokens < 1:
            with self._coalesce_copies():
                self.manager.ensure_capacity(1, now)
        self.manager.append_tokens(conv_id, 1)
        table.append_tokens(1)

    # ------------------------------------------------------------------
    # Batched serving (unified batching, functional layer)
    # ------------------------------------------------------------------

    def chat_batch(
        self,
        prompts: Sequence[Tuple[int, Sequence[int]]],
        max_new_tokens: int = 16,
        sampling: SamplingParams = GREEDY,
    ) -> Dict[int, List[int]]:
        """Serve several conversations' turns in unified batches.

        All prefills run in one forward pass (mixing fresh and returning
        conversations, exactly the §4.2 unified batch) and every decode
        step advances all conversations together.  With greedy sampling
        the outputs are identical to serving the turns sequentially —
        batching is purely a throughput optimisation.

        Args:
            prompts: ``(conv_id, prompt_ids)`` pairs; conversation ids
                must be distinct within one batch.
            max_new_tokens: tokens to generate per conversation (at
                least 1).
            sampling: decoding strategy (stochastic strategies consume the
                sampling stream in batch — i.e. scheduled — order, so
                they match sequential serving only in distribution, not
                token-for-token).

        Returns:
            Mapping of conversation id to its generated token ids.
            Conversations whose requests failed individually under an
            armed fault plan are omitted (see ``self.failures``).
        """
        self._clock += 1.0
        now = self._clock
        if max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
        prompts = [(conv_id, list(prompt_ids)) for conv_id, prompt_ids in prompts]
        conv_ids = [conv_id for conv_id, _ in prompts]
        if len(set(conv_ids)) != len(conv_ids):
            raise ValueError("duplicate conversation ids in one batch")
        if self.SYSTEM_CONV_ID in conv_ids:
            raise ValueError(f"conversation id {self.SYSTEM_CONV_ID} is reserved")
        for conv_id, prompt_ids in prompts:
            if not prompt_ids:
                raise ValueError(f"empty prompt for conversation {conv_id}")
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant("batch_turn", t=now, track="server", batch_size=len(prompts))

        def failed(turn_span: int) -> None:
            # The error itself is already in ``self.failures``.
            if tracer.enabled:
                tracer.count("requests.failed")
                tracer.end(turn_span, t=self._clock, outcome="failed")

        # Phase 1: restore/extend every conversation's context (pins all,
        # so later restores cannot evict earlier batch members).  A
        # request that exhausts its fault retries drops out individually;
        # the rest of the batch is served normally.
        turns: List[_Turn] = []
        for conv_id, prompt_ids in prompts:
            span = phase = 0
            if tracer.enabled:
                span = tracer.begin(
                    "request", t=now, track="requests",
                    conv_id=conv_id, prompt_tokens=len(prompt_ids),
                )
                phase = tracer.begin(
                    "prefill", t=now, parent=span, track="server", conv_id=conv_id
                )
            try:
                table, dropped, input_ids = self._restore_context(
                    conv_id, prompt_ids, now
                )
            except RequestFaultedError:
                failed(span)
                continue
            turns.append(
                _Turn(conv_id, prompt_ids, table, dropped, input_ids, span, phase)
            )
        if not turns:
            return {}

        # Phase 2: one unified prefill batch.
        shared = len(self._system_slots)
        logits = self.model.forward(
            [
                ForwardRequest(
                    input_ids=np.asarray(turn.input_ids, dtype=np.int64),
                    context_slots=self._full_context(turn.table),
                    dropped=turn.dropped,
                    shared_prefix=shared,
                )
                for turn in turns
            ]
        )
        for turn, l in zip(turns, logits):
            turn.generated.append(sample_token(l[-1], sampling, self._sampling_rng))
            if tracer.enabled:
                tracer.end(
                    turn.phase, t=self._clock,
                    tokens=len(turn.input_ids), recomputed=turn.dropped,
                )
                turn.phase = tracer.begin(
                    "decode", t=self._clock, parent=turn.span, track="server",
                    conv_id=turn.conv_id,
                )

        # Phase 3: batched decode steps (every conversation advances by
        # one token per iteration, like the simulated engine).  A
        # mid-decode terminal fault removes only the affected
        # conversation; its siblings keep decoding.
        for step in range(max_new_tokens):
            steps = []
            survivors = []
            for turn in turns:
                try:
                    self._grow(turn.conv_id, turn.table, now)
                except RequestFaultedError:
                    failed(turn.span)
                    continue
                survivors.append(turn)
                steps.append(
                    self._decode_request(turn.conv_id, turn.table, turn.generated[-1])
                )
            turns = survivors
            if not turns:
                return {}
            step_logits = self.model.forward(steps)
            if step + 1 < max_new_tokens:  # the last step only writes KV
                for turn, l in zip(turns, step_logits):
                    turn.generated.append(
                        sample_token(l[-1], sampling, self._sampling_rng)
                    )

        # Phase 4: persist raw tokens and unpin.
        for turn in turns:
            history = self.raw_tokens[turn.conv_id]
            history.extend(turn.prompt_ids)
            history.extend(turn.generated)
            self.manager.close(turn.conv_id, now)
            if tracer.enabled:
                tracer.end(turn.phase, t=self._clock, tokens=len(turn.generated))
                tracer.count("requests.finished")
                tracer.end(
                    turn.span, t=self._clock,
                    outcome="finished", output_tokens=len(turn.generated),
                )
        return {turn.conv_id: turn.generated for turn in turns}

    def chat_text(self, conv_id: int, user_text: str, max_new_tokens: int = 16) -> str:
        """Convenience wrapper returning decoded text."""
        ids = self.chat(conv_id, user_text=user_text, max_new_tokens=max_new_tokens)
        return self.tokenizer.decode(ids)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def context_length(self, conv_id: int) -> int:
        """Cached context length of a conversation (0 if unknown)."""
        cache = self.manager.conversation(conv_id)
        return cache.total_tokens if cache else 0

    def placement(self, conv_id: int) -> Dict[str, int]:
        """Figure 5 decomposition of a conversation's cached context."""
        cache = self.manager.conversation(conv_id)
        if cache is None:
            return {}
        seg = cache.segments()
        return {loc.value: tokens for loc, tokens in seg.items() if tokens}
