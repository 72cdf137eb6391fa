"""A functional stateful chat server: Pensieve end-to-end on real tensors.

:class:`StatefulChatServer` is the executable counterpart of the simulated
:class:`~repro.core.engine.PensieveEngine`: it serves multi-turn
conversations through the numpy :class:`~repro.model.PagedTransformer`,
physically moving KV data exactly as the cache manager decides —

- finished turns leave their KV-tokens in GPU pages (stateful serving);
- under GPU pressure, leading chunks are *copied* to the CPU store
  (§4.3.2), their pages vacated only on reclaim;
- under CPU pressure, leading chunks are dropped and later *recomputed*
  from the raw-token persistent store via the Figure 8 sub-request path;
- returning conversations swap their CPU chunks back into (different!)
  GPU pages, exercising the non-contiguous multi-token attention kernel;
- a turn's last generated token gets its KV slot but no forward: the
  conversation's next prefill feeds it as one more input row, so a turn
  of N tokens runs one prefill and N - 1 decode forwards.

Because every movement is real, tests can assert the headline correctness
property: a server under heavy eviction produces *exactly* the same output
tokens as one with abundant memory.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from types import MethodType
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.backends import Backend
from repro.core.eviction import LruPolicy
from repro.faults import (
    FaultCounters,
    FaultPlan,
    FaultSite,
    RequestFaultedError,
    attempt_with_retries,
)
from repro.kvcache.chunks import ChunkLocation, ConversationCache
from repro.kvcache.manager import CHUNK_SIZE, CacheCapacityError, TieredCacheManager
from repro.kvcache.pages import BlockTable, PagePool
from repro.kvcache.storage import CpuChunkStore, KVStorage
from repro.kernels.packed_cache import DecodeSlotSource
from repro.model.config import ModelConfig, tiny_opt_config
from repro.model.transformer import DecodeRequest, ForwardRequest, PagedTransformer
from repro.obs.tracer import Tracer
from repro.workload.tokenizer import SimpleTokenizer

#: Bound on concurrently tracked conversations, used to size the page
#: pool's internal-fragmentation allowance (each conversation wastes at
#: most one partially-filled tail page, exactly like a vLLM sequence).
MAX_CONVERSATIONS = 64

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
    #: The turn's generation step, reused by every decode step (``None``
    #: without the packed decode cache, or for a one-token turn).
    decode: Optional[DecodeRequest] = None


class StatefulChatServer:
    """Serve multi-turn chats with a tiered KV cache over real tensors.

    Args:
        config: model configuration (tiny presets recommended; weights are
            random, so this demonstrates systems behaviour, not language
            quality).
        gpu_capacity_tokens: GPU-tier size in KV-token slots.
        cpu_capacity_tokens: CPU-tier size (0 = GPU-cache-only variant).
        chunk_size: eviction granularity
            (:data:`~repro.kvcache.manager.CHUNK_SIZE`); must be a
            multiple of ``page_size``.
        page_size: tokens per GPU page.
        seed: model weight seed.
        fault_plan: optional seeded failure schedule (chaos testing); the
            server recovers along the retry → recompute-fallback →
            per-request-failure ladder, counting into ``fault_counters``.
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

    The server evicts by :class:`~repro.core.eviction.LruPolicy`: the
    functional layer has no profiled cost table.  A tracer is attached
    with :meth:`set_tracer`.
    """

    def __init__(
        self,
        config: Optional[ModelConfig] = None,
        gpu_capacity_tokens: int = 512,
        cpu_capacity_tokens: int = 2048,
        chunk_size: int = CHUNK_SIZE,
        page_size: int = 8,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        use_fast_paths: bool = True,
        backend: str = "paged",
    ) -> None:
        if backend != Backend.name:
            raise ValueError(
                f"unknown backend {backend!r}; the only backend is "
                f"{Backend.name!r}"
            )
        if chunk_size % page_size != 0:
            raise ValueError(
                f"chunk_size ({chunk_size}) must be a multiple of "
                f"page_size ({page_size}) so evictions stay page-aligned"
            )
        if gpu_capacity_tokens % page_size != 0:
            raise ValueError("gpu_capacity_tokens must be a multiple of page_size")
        self.config = config or tiny_opt_config()
        # The manager accounts logical tokens; the pool additionally loses
        # up to one page per conversation to tail fragmentation.
        pool_tokens = gpu_capacity_tokens + page_size * MAX_CONVERSATIONS
        self.pool = PagePool(
            num_pages=pool_tokens // page_size, page_size=page_size
        )
        self.fault_plan = fault_plan
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
        self.model = PagedTransformer(
            self.config,
            self.storage,
            seed=seed,
            use_fast_paths=use_fast_paths,
        )
        self.tokenizer = SimpleTokenizer(self.config.vocab_size)
        self.manager = TieredCacheManager(
            gpu_capacity_tokens=gpu_capacity_tokens,
            cpu_capacity_tokens=cpu_capacity_tokens,
            chunk_size=chunk_size,
            scorer=LruPolicy(),
            fault_plan=fault_plan,
            fault_counters=self.fault_counters,
        )
        # Bound to a weak proxy: the manager must not hold the server, or
        # every dropped server would wait for the cyclic collector.
        self.manager.observer = MethodType(
            type(self)._on_transition, weakref.proxy(self)
        )
        self._tables: Dict[int, BlockTable] = {}
        #: The "persistent store" of Figure 7: every conversation's raw
        #: token ids, used to recompute dropped chunks.
        self.raw_tokens: Dict[int, List[int]] = {}
        #: Conversations whose last token (the last of ``raw_tokens``)
        #: holds an allocated KV slot that no forward has written yet;
        #: their next prefill feeds that token (see :meth:`chat_batch`).
        self._unwritten: Set[int] = set()
        self._clock = 0.0
        # Shared system-prompt state (paper footnote 3): prefilled once,
        # pinned forever, prepended to every conversation's context.
        self._system_slots: List[int] = []
        self._system_slots_arr: np.ndarray = np.empty(0, dtype=np.int64)
        self._system_ids: List[int] = []
        # Deferred D2H copies: each ahead-of-time copy queues
        # ``(conv_id, chunk_index, slots)`` here, and they cross as one
        # gather per chunk + one batched insert (see
        # :meth:`_ensure_capacity`).
        self._pending_copies: List[Tuple[int, int, np.ndarray]] = []
        #: Observability sink (``repro.obs``); ``None`` (the default)
        #: skips every instrumentation site.
        self.tracer: Optional[Tracer] = None

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach a tracer, propagating it to the cache tiers."""
        self.tracer = tracer
        self.manager.tracer = tracer
        self.cpu_store.tracer = tracer

    # ------------------------------------------------------------------
    # Physical mirror of the manager's tier transitions
    # ------------------------------------------------------------------

    def _on_transition(
        self,
        cache: ConversationCache,
        index: int,
        old: ChunkLocation,
        new: ChunkLocation,
    ) -> None:
        conv_id = cache.conv_id
        table = self._tables[conv_id]
        start, end = cache.span(index)
        if old is ChunkLocation.GPU and new is ChunkLocation.GPU_CPU:
            # Ahead-of-time copy: data lands in the CPU store, pages stay.
            # The slots are captured now; nothing can reallocate them
            # before the flush that ends :meth:`_ensure_capacity`.
            self._pending_copies.append(
                (conv_id, index, table.slots_array(start, end))
            )
        elif old is ChunkLocation.GPU_CPU and new is ChunkLocation.CPU:
            # Reclaim: the pages are handed back (data only in CPU now).
            table.vacate_front(end - start)
        elif old is ChunkLocation.GPU_CPU and new is ChunkLocation.GPU:
            # Promotion on reuse: invalidate the (stale-to-be) CPU copy.
            self.cpu_store.drop(conv_id, index)
        elif old is ChunkLocation.GPU and new is ChunkLocation.DROPPED:
            table.vacate_front(end - start)
        elif old is ChunkLocation.GPU_CPU and new is ChunkLocation.DROPPED:
            # Pressure fallback: discard both the GPU slots and the copy.
            # The only move that can meet a queued copy (a swap-out drops
            # a prefix it copied part of): land it first, so the store
            # and its counters see the put before the drop.
            if any(c == conv_id and i == index for c, i, _ in self._pending_copies):
                self._flush_pending_copies()
            self.cpu_store.drop(conv_id, index)
            table.vacate_front(end - start)
        elif old is ChunkLocation.CPU and new is ChunkLocation.DROPPED:
            # The entry may already be gone when a partially-popped swap-in
            # prefix is being invalidated after a corrupt read.
            if self.cpu_store.contains(conv_id, index):
                self.cpu_store.drop(conv_id, index)
        elif new is ChunkLocation.GPU:
            # From CPU: ``_restore_context`` moves the whole stored prefix
            # in one batch (restore_front needs it handled at once).  From
            # DROPPED: recomputation fills the restored slots during
            # prefill.  Nothing here.
            pass
        else:  # pragma: no cover - no other transition reaches the server
            raise AssertionError(f"unexpected transition {old} -> {new}")

    # ------------------------------------------------------------------
    # Coalesced D2H copy path (per-chunk gathers + batched CPU-store insert)
    # ------------------------------------------------------------------

    def _ensure_capacity(self, tokens: int, now: float) -> None:
        """:meth:`TieredCacheManager.ensure_capacity`, then flush: the
        only call that queues a copy (``GPU -> GPU_CPU`` happens in its
        swap-out alone), so every copy it fired crosses as one batch.
        No GPU page is re-allocated before the flush."""
        try:
            self.manager.ensure_capacity(tokens, now)
        finally:
            self._flush_pending_copies()

    def _flush_pending_copies(self) -> None:
        """Move every deferred chunk copy to the CPU store: one all-layer
        gather per chunk, into the array the store keeps, and one batched
        insert."""
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

    # ------------------------------------------------------------------
    # Shared system prompt (paper footnote 3)
    # ------------------------------------------------------------------

    #: Reserved conversation id used to pin the system prompt's slots in
    #: the manager's accounting.
    SYSTEM_CONV_ID = -1

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

    def _decode_request(self, turn: _Turn) -> Union[DecodeRequest, ForwardRequest]:
        """One generation step's request, fed the turn's last token.

        With the packed decode cache it is the turn's own
        :class:`DecodeRequest`, which names the context by reference, so
        the transformer packs only the slots that changed since the
        previous step.  The oracle (no decode cache) gets explicit context
        slots, rebuilt every step."""
        if turn.decode is None:
            return ForwardRequest(
                input_ids=turn.generated[-1:],
                context_slots=self._full_context(turn.table),
                shared_prefix=len(self._system_slots),
            )
        turn.decode.token = turn.generated[-1]
        return turn.decode

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------

    def _attempt(self, site: FaultSite) -> Tuple[bool, int]:
        """Try one faultable operation with bounded backoff on the server
        clock; returns ``(success, attempts)``."""
        if self.fault_plan is None:
            return True, 1
        ok, retries, delay = attempt_with_retries(
            self.fault_plan, site, self.fault_counters, tracer=self.tracer
        )
        self._clock += delay
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
        # ``forget`` bypasses the observer, so mirror the cleanup here.
        for chunk_index in self.cpu_store.chunks_of(conv_id):
            self.cpu_store.drop(conv_id, chunk_index)
        self.raw_tokens.pop(conv_id, None)
        self._unwritten.discard(conv_id)

    def _fail_request(
        self, conv_id: int, site: FaultSite, attempts: int
    ) -> RequestFaultedError:
        error = RequestFaultedError(conv_id=conv_id, site=site, attempts=attempts)
        self.fault_counters.degraded_requests += 1
        self.failures.append(error)
        return error

    def _fail_before_restore(
        self, conv_id: int, now: float, attempts: int
    ) -> RequestFaultedError:
        """Fail a turn whose GPU allocation failed before its restore
        committed.  Nothing of the turn was applied yet, so unpinning
        restores the status quo: prior turns' context survives,
        unpinned, and a conversation with no context is discarded."""
        cache = self.manager.conversation(conv_id)
        if cache is not None and cache.total_tokens > 0:
            self.manager.close(conv_id, now)
        else:
            self._abort_conversation(conv_id)
        return self._fail_request(conv_id, FaultSite.GPU_ALLOC, attempts)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def chat(
        self,
        conv_id: int,
        user_text: str = "",
        prompt_ids: Optional[Sequence[int]] = None,
        max_new_tokens: int = 16,
    ) -> List[int]:
        """Serve one turn: the :meth:`chat_batch` batch of one.

        Args:
            conv_id: conversation identifier.
            user_text: the user's message (tokenised internally); ignored
                if ``prompt_ids`` is given.
            prompt_ids: raw prompt token ids (for tests/scripted runs).
            max_new_tokens: number of tokens to generate (at least 1).

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
        generated = self.chat_batch([(conv_id, prompt_ids)], max_new_tokens)
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
        tokens and the new prompt.  An unwritten last token (see
        :meth:`chat_batch`) is fed just ahead of the prompt, at its own
        position; a recompute of the whole history already feeds it.
        """
        history = self.raw_tokens.setdefault(conv_id, [])
        table = self._tables.get(conv_id)
        if table is None:
            table = self._tables.setdefault(conv_id, BlockTable(self.pool))

        # Pin first so capacity-making below cannot evict this
        # conversation's own chunks out from under the plan.
        self.manager.open(conv_id, now)
        # Transient GPU-allocation fault gate, retried with backoff on the
        # server clock.  A terminal failure degrades this request alone.
        ok, attempts = self._attempt(FaultSite.GPU_ALLOC)
        if not ok:
            raise self._fail_before_restore(conv_id, now, attempts)
        plan = self.manager.plan_restore(conv_id, len(prompt_ids))

        # A swap-in transfer that fails terminally falls back to
        # recomputing the CPU chunks (§4.3.4).  ``alloc_tokens`` is
        # unchanged (their tokens become recompute tokens), so the
        # capacity work below is identical either way.
        if plan.swap_in_chunks and not self._attempt(FaultSite.SWAP_IN)[0]:
            plan, _ = self.manager.fall_back_to_recompute(
                conv_id, len(prompt_ids), now
            )

        # Make room (may evict other conversations — the observer moves
        # their tensors; reclaim happens lazily inside commit_restore).
        # A turn that cannot fit beside the pinned batch members fails
        # alone, like a terminal allocation fault.
        try:
            self._ensure_capacity(plan.alloc_tokens, now)
        except CacheCapacityError:
            raise self._fail_before_restore(conv_id, now, attempts) from None

        # Pull the CPU chunks' data out of the store *before* commit
        # flips their state (the observer drops CPU entries on promotion
        # of GPU_CPU chunks only; CPU->GPU data is handled here).  They
        # move in ONE coalesced batch; each chunk is still CRC re-verified
        # individually against its insertion-time checksum.  Capture
        # spans now: commit_restore may extend a stored partial tail
        # chunk, but the stored data covers the pre-extension token range.
        cache = self.manager.conversation(conv_id)
        spans: Dict[int, Tuple[int, int]] = {}
        popped: List[Tuple[int, Tuple[np.ndarray, np.ndarray]]] = []
        corrupt: List[int] = []
        if plan.swap_in_chunks:
            spans = {index: cache.span(index) for index in plan.swap_in_chunks}
            popped, corrupt = self.cpu_store.pop_many(
                conv_id, list(plan.swap_in_chunks)
            )
        restored_data = [(*spans[index], data) for index, data in popped]
        if corrupt:
            # Checksum caught corruption: invalidate the stored prefix
            # through the last corrupt chunk — the Figure 5 layout only
            # lets the DROPPED prefix grow, so already-popped
            # predecessors are discarded too — and recompute those tokens.
            # The pop preserves request order, so ``corrupt`` ascends.
            plan, _ = self.manager.fall_back_to_recompute(
                conv_id, len(prompt_ids), now,
                corrupt=len(corrupt), upto=corrupt[-1],
            )
            kept = spans[corrupt[-1]][1]
            restored_data = [item for item in restored_data if item[0] >= kept]
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                "restore", t=now, track="server", conv_id=conv_id,
                gpu_hits=plan.gpu_hit_tokens, swap_in=plan.swap_in_tokens,
                recompute=plan.recompute_tokens, new=plan.new_tokens,
            )
        self.manager.commit_restore(plan, now)
        carried = conv_id in self._unwritten
        self._unwritten.discard(conv_id)

        # Physically restore the vacated prefix: dropped tokens get fresh
        # (empty) slots to be filled by recomputation; CPU tokens get
        # fresh slots filled from the store.
        restore_tokens = plan.recompute_tokens + plan.swap_in_tokens
        if restore_tokens:
            table.restore_front(restore_tokens)
        if restored_data:
            # One all-layer scatter per chunk.
            self.storage.write_slots_stacked(
                [table.slots_array(start, end) for start, end, _ in restored_data],
                [data for _, _, data in restored_data],
            )
        table.append_tokens(len(prompt_ids))

        # Figure 8(a): recomputed raw tokens are prepended to the prompt,
        # and so is a carried token unless the recompute covers it; the
        # trailing-position rule of ``ForwardRequest`` places it.
        dropped = plan.recompute_tokens
        input_ids = history[:dropped]
        if carried and dropped < len(history):
            input_ids.append(history[-1])
        input_ids += prompt_ids
        return table, dropped, input_ids

    # ------------------------------------------------------------------
    # Batched serving (unified batching, functional layer)
    # ------------------------------------------------------------------

    def chat_batch(
        self,
        prompts: Sequence[Tuple[int, Sequence[int]]],
        max_new_tokens: int = 16,
    ) -> Dict[int, List[int]]:
        """Serve several conversations' turns in unified batches.

        All prefills run in one forward pass (mixing fresh and returning
        conversations, exactly the §4.2 unified batch) and every decode
        step advances all conversations together.  Decoding is greedy, so
        the outputs are identical to serving the turns sequentially —
        batching is purely a throughput optimisation.

        Each turn builds its :class:`DecodeRequest` once, after the
        prefill; a decode step sets its token and passes the live turns'
        requests to ``model.forward``, and the next tokens are one
        ``argmax`` over the step's logits.  A turn that fails or is
        aborted leaves the batch with its request.

        A turn of N tokens runs one prefill and N - 1 decode forwards.
        Its last step grows every member by the last token's KV slot
        (fault gate, capacity, manager and block table, as any step)
        but runs no forward: the token's K/V would only be written, its
        logits discarded.  The conversation's next prefill computes it
        as one more input row, writing it at every layer before that
        layer's attention reads it; only the owner's forwards read the
        slot, so nothing reads it earlier.

        Args:
            prompts: ``(conv_id, prompt_ids)`` pairs; conversation ids
                must be distinct within one batch.
            max_new_tokens: tokens to generate per conversation (at
                least 1).

        Returns:
            Mapping of conversation id to its generated token ids.
            Conversations whose requests failed individually under an
            armed fault plan are omitted (see ``self.failures``).

        Raises:
            ValueError: before anything changes, on a bad argument or a
                turn whose system prompt, history, prompt and
                ``max_new_tokens`` exceed ``config.max_position``.
        """
        if max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
        prompts = [(conv_id, list(prompt_ids)) for conv_id, prompt_ids in prompts]
        conv_ids = [conv_id for conv_id, _ in prompts]
        if len(set(conv_ids)) != len(conv_ids):
            raise ValueError("duplicate conversation ids in one batch")
        if self.SYSTEM_CONV_ID in conv_ids:
            raise ValueError(f"conversation id {self.SYSTEM_CONV_ID} is reserved")
        # Every position of the turn, the last token's included (its K/V
        # is written by the next prefill), must exist in the model.
        limit = self.config.max_position
        shared = len(self._system_slots)
        for conv_id, prompt_ids in prompts:
            if not prompt_ids:
                raise ValueError(f"empty prompt for conversation {conv_id}")
            positions = (
                shared + self.context_length(conv_id) + len(prompt_ids) + max_new_tokens
            )
            if positions > limit:
                raise ValueError(
                    f"conversation {conv_id} would need {positions} positions "
                    f"(system prompt, history, prompt and {max_new_tokens} new "
                    f"tokens); the model holds max_position={limit}"
                )
        # The clock moves only for a call that passed validation: a
        # rejected call must not shift later turns' retention T.
        self._clock += 1.0
        now = self._clock
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("batch_turn", t=now, track="server", batch_size=len(prompts))

        def failed(turn_span: int) -> None:
            # The error itself is already in ``self.failures``.
            if tracer is not None:
                tracer.count("requests.failed")
                tracer.end(turn_span, t=self._clock, outcome="failed")

        # Phase 1: restore/extend every conversation's context (pins all,
        # so later restores cannot evict earlier batch members).  A
        # request that exhausts its fault retries drops out individually;
        # the rest of the batch is served normally.
        turns: List[_Turn] = []
        for conv_id, prompt_ids in prompts:
            span = phase = 0
            if tracer is not None:
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
        decode_cache = self.model.decode_cache
        tokens = np.argmax(logits, axis=1).tolist()
        for turn, token in zip(turns, tokens):
            turn.generated.append(token)
            if decode_cache is not None and max_new_tokens > 1:
                turn.decode = DecodeRequest(
                    DecodeSlotSource(turn.table, self._system_slots_arr)
                )
            if tracer is not None:
                tracer.end(
                    turn.phase, t=self._clock,
                    tokens=len(turn.input_ids), recomputed=turn.dropped,
                )
                turn.phase = tracer.begin(
                    "decode", t=self._clock, parent=turn.span, track="server",
                    conv_id=turn.conv_id,
                )

        def abort(turn: _Turn, attempts: int) -> None:
            # The last rung of the degradation ladder: the conversation is
            # discarded and the server stays consistent for the others.
            self._abort_conversation(turn.conv_id)
            self._fail_request(turn.conv_id, FaultSite.GPU_ALLOC, attempts)
            failed(turn.span)

        # Phase 3: batched decode steps (every conversation advances by
        # one token per iteration, like the simulated engine).  A step is
        # each member's allocation gate, in batch order (a terminal fault
        # removes that member only); room for the whole step, aborting
        # the latest-joined member (§4.3.5's victim) while there is none;
        # one manager call; one slot in each block table.
        for step in range(max_new_tokens):
            gated = []
            for turn in turns:
                ok, attempts = self._attempt(FaultSite.GPU_ALLOC)
                if ok:
                    gated.append(turn)
                else:
                    abort(turn, attempts)
            turns = gated
            while turns and self.manager.gpu_available_tokens < len(turns):
                try:
                    self._ensure_capacity(len(turns), now)
                except CacheCapacityError:
                    abort(turns.pop(), 1)
            if not turns:
                return {}
            self.manager.append_tokens([turn.conv_id for turn in turns], now)
            for turn in turns:
                turn.table.append_tokens(1)
            if step + 1 < max_new_tokens:  # the last step runs no forward
                step_logits = self.model.forward(
                    [self._decode_request(turn) for turn in turns]
                )
                tokens = np.argmax(step_logits, axis=1).tolist()
                for turn, token in zip(turns, tokens):
                    turn.generated.append(token)

        # Phase 4: persist raw tokens and unpin; the last token's slot is
        # left for the next prefill to write.
        for turn in turns:
            history = self.raw_tokens[turn.conv_id]
            history.extend(turn.prompt_ids)
            history.extend(turn.generated)
            self._unwritten.add(turn.conv_id)
            self.manager.close(turn.conv_id, now)
            if tracer is not None:
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
