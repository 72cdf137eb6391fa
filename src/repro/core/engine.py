"""The Pensieve serving engine (the paper's primary contribution).

A stateful, unified-batching engine built on:

- the tiered :class:`~repro.kvcache.manager.TieredCacheManager`
  (token-chunk eviction, lazy reclamation, Figure 5 restore planning);
- the retention-value eviction policy (§4.3.1) driven by offline
  power-of-two profiling;
- ahead-of-time swap-out below a free-space threshold (§4.3.2);
- pipelined per-layer swap-in overlapping the PCIe transfer with
  computation (§4.3.3);
- dropped-token recomputation via Figure 8(d) sub-request shapes, which
  the cost model charges exactly like the multi-token kernel would run
  them (§4.3.4);
- suspension of the latest-arrived requests when generation outgrows the
  GPU cache (§4.3.5);
- unified prefill+generation batches enabled by the multi-token attention
  kernel (§4.2/§4.4.1) — with a ``unified=False`` switch reproducing the
  Figure 13 ablation;
- retrieval-prioritised PCIe scheduling (§5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gpu.costmodel import BatchShape, CostModel, KernelVariant
from repro.gpu.device import GpuSpec
from repro.gpu.link import Direction, Link, TransferRecord
from repro.gpu.profiler import OfflineProfiler
from repro.core.eviction import LruPolicy, RetentionValuePolicy
from repro.faults import FaultPlan, FaultSite, attempt_with_retries
from repro.kvcache.manager import (
    CHUNK_SIZE,
    CacheCapacityError,
    EvictionScorer,
    TieredCacheManager,
)
from repro.model.config import ModelConfig
from repro.obs.tracer import Tracer
from repro.serving.batching import BatchConfig
from repro.serving.engine import EngineBase
from repro.serving.request import Request, RequestState
from repro.sim.events import EventLoop


#: Simulated duration of one injected worker stall (``WORKER_STEP``).
WORKER_STALL_SECONDS = 0.05


@dataclass(slots=True)
class _PrefillInfo:
    """Shape bookkeeping for a request admitted this iteration."""

    recompute_tokens: int
    prompt_tokens: int
    total_context: int


class PensieveEngine(EngineBase):
    """Stateful multi-turn conversation serving (§4).

    Args:
        loop: discrete-event loop.
        config: model hyper-parameters.
        spec: GPU hardware description.
        batch_config: admission thresholds (§4.3 defaults).
        cpu_cache_tokens: CPU-tier capacity in tokens; ``None`` derives it
            from ``spec.cpu_memory_bytes`` (x num_gpus), ``0`` produces the
            paper's "Pensieve (GPU cache)" variant.
        policy: ``"retention"`` (default) or ``"lru"``.
        chunk_size: eviction granularity
            (:data:`~repro.kvcache.manager.CHUNK_SIZE`).
        unified: batch prefill and generation together (§4.2); ``False``
            reproduces the separate-scheduling ablation of Figure 13.
        pipelined_swap_in: overlap per-layer transfers with compute
            (§4.3.3); ``False`` blocks on the full transfer (ablation).
        prioritize_retrieval: §5 PCIe scheduling optimisation.
        name: engine label override.
        fault_plan: optional seeded failure schedule (chaos runs); the
            engine recovers along the retry → recompute-fallback →
            per-request-failure ladder and counts the degradation in
            ``metrics.faults``.
    """

    def __init__(
        self,
        loop: EventLoop,
        config: ModelConfig,
        spec: GpuSpec,
        batch_config: Optional[BatchConfig] = None,
        cpu_cache_tokens: Optional[int] = None,
        policy: str = "retention",
        chunk_size: int = CHUNK_SIZE,
        unified: bool = True,
        pipelined_swap_in: bool = True,
        prioritize_retrieval: bool = True,
        name: Optional[str] = None,
        whole_conversation_eviction: bool = False,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        cost_model = CostModel(config, spec)
        if name is None:
            name = "Pensieve" if cpu_cache_tokens != 0 else "Pensieve (GPU cache)"
        super().__init__(name, loop, cost_model, batch_config)
        self.model_config = config
        self.spec = spec
        self.unified = unified
        self.pipelined_swap_in = pipelined_swap_in

        kv = config.kv_bytes_per_token
        gpu_tokens = int(spec.kv_cache_bytes * config.num_gpus // kv)
        if cpu_cache_tokens is None:
            cpu_cache_tokens = int(spec.cpu_memory_bytes * config.num_gpus // kv)
        scorer = self._resolve_policy(policy, cost_model, chunk_size)
        self.fault_plan = fault_plan
        self.manager = TieredCacheManager(
            gpu_capacity_tokens=gpu_tokens,
            cpu_capacity_tokens=cpu_cache_tokens,
            chunk_size=chunk_size,
            scorer=scorer,
            whole_conversation_eviction=whole_conversation_eviction,
            fault_plan=fault_plan,
            fault_counters=self.metrics.faults,
        )
        self.pcie = Link.pcie(spec, config.num_gpus, prioritize_retrieval)
        self._prefill_info: Dict[int, _PrefillInfo] = {}
        # Per-iteration stash set by _form_batch, consumed by _execute:
        # the batch's decoders' conversation ids (they lead the batch).
        self._iter_decode_ids: List[int] = []
        self._iter_swap_in_seconds = 0.0
        # Simulated seconds spent in fault-retry backoff this iteration.
        self._iter_fault_delay = 0.0
        self.suspensions = 0
        # Copy-settlement ledger (§4.3.2): ahead-of-time copies become
        # *reclaimable in time* only once their D2H transfer lands.  Each
        # entry is ``(transfer_end_time, tokens)``; ``_settled_tokens``
        # accumulates entries whose end time has passed.
        self._copy_log: deque = deque()
        self._settled_tokens = 0
        # What the previous idle poll saw (:meth:`_idle_retry_delay`).
        self._idle_state: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Observability (repro.obs)
    # ------------------------------------------------------------------

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        super().set_tracer(tracer)
        self.manager.tracer = tracer
        self.pcie.tracer = tracer

    def _trace_gauges(self, tracer: Tracer, now: float) -> None:
        manager = self.manager
        tracer.gauge("kv.gpu_resident_tokens", manager.gpu_resident_tokens, t=now)
        tracer.gauge("kv.gpu_free_tokens", manager.gpu_free_tokens, t=now)
        tracer.gauge("kv.reclaimable_tokens", manager.reclaimable_tokens, t=now)
        tracer.gauge("kv.evictable_tokens", manager.evictable_gpu_tokens, t=now)
        tracer.gauge("kv.cpu_used_tokens", manager.cpu_used_tokens, t=now)
        tracer.gauge(
            "kv.fragmentation_tokens", manager.fragmentation_tokens(), t=now
        )

    @staticmethod
    def _resolve_policy(
        policy: str, cost_model: CostModel, chunk_size: int
    ) -> EvictionScorer:
        if policy == "retention":
            profile = OfflineProfiler.from_cost_model(cost_model).profile(
                chunk_size=chunk_size, max_context=16384
            )
            return RetentionValuePolicy(profile)
        if policy == "lru":
            return LruPolicy()
        raise ValueError(f"unknown eviction policy {policy!r}")

    # ------------------------------------------------------------------
    # Batch formation (§4.2)
    # ------------------------------------------------------------------

    def _retry(self, site: FaultSite, request: Request) -> bool:
        """Draw ``site`` once, retrying with bounded backoff; False on
        terminal failure.  The simulated backoff is charged to this
        iteration (it lands on the sim clock via the iteration
        duration)."""
        ok, retries, delay = attempt_with_retries(
            self.fault_plan, site, self.metrics.faults, tracer=self.tracer
        )
        self._iter_fault_delay += delay
        if retries > 0 and self._observed:
            self._event(
                request, "retry", self.loop.now, count=retries, site=site.value
            )
        return ok

    def _attempt(self, site: FaultSite, request: Request) -> bool:
        """Try one faultable operation; returns False on terminal failure."""
        if self.fault_plan is None:
            return True
        ok = self._retry(site, request)
        if not ok and self._observed:
            self._event(request, "fault", self.loop.now, site=site.value)
        return ok

    def _form_batch(self, now: float) -> List[Request]:
        self._iter_swap_in_seconds = 0.0
        self._iter_fault_delay = 0.0
        if not self.unified:
            # Figure 13 ablation: prefill runs as its own (often small)
            # batch while decoders stall for the iteration, so admission
            # is decided first and a stalled decoder grows no KV slot.
            admitted = self._admit(now)
            if admitted:
                self._iter_decode_ids = []
                return admitted
            decoders, self._iter_decode_ids = self._grow_decoders(now)
            return decoders
        decoders, self._iter_decode_ids = self._grow_decoders(now)
        return decoders + self._admit(now)

    def _grow_decoders(self, now: float) -> Tuple[List[Request], List[int]]:
        """Allocate each running request's next KV slot, in one manager
        call for the whole batch, suspending requests if the GPU cache is
        exhausted (§4.3.5: the latest-arrived request is the victim).
        Surviving decoders keep their running order, so batch composition
        stays stable between iterations.  Returns them and their
        conversation ids."""
        running = RequestState.RUNNING
        decoders = [r for r in self.running if r.state is running]
        while decoders and self.manager.gpu_available_tokens < len(decoders):
            victim = max(decoders, key=lambda r: (r.arrival_time, r.request_id))
            self._suspend(victim, now)
            decoders.remove(victim)
        if self.fault_plan is not None:
            survivors = []
            for request in decoders:
                if self._attempt(FaultSite.GPU_ALLOC, request):
                    survivors.append(request)
                else:
                    # Allocation kept failing past the retry budget: this
                    # request alone degrades; its siblings keep decoding.
                    self._fail_request(request, now, "gpu_alloc")
            decoders = survivors
        conv_ids = [r.conversation.conv_id for r in decoders]
        # Fits: the suspensions above left ``len(decoders)`` slots available.
        self.manager.append_tokens(conv_ids, now)
        return decoders, conv_ids

    def _price(
        self, direction: Direction, now: float, tokens: int, num_chunks: int
    ) -> TransferRecord:
        """Price ``tokens`` of KV crossing the PCIe link as ONE coalesced
        transfer of ``num_chunks`` chunks at ``now``; returns the link's
        record."""
        record = self.pcie.transfer(
            now, tokens * self.model_config.kv_bytes_per_token, direction,
            num_chunks,
        )
        hists = self.metrics.hist
        if hists is not None:
            # Labelled with the tier the bytes come from or go to.
            out = direction is Direction.D2H
            name = "swap_out_seconds" if out else "swap_in_seconds"
            hists.hist(name, tier="cpu").record(record.end_time - now)
        return record

    def _suspend(self, victim: Request, now: float) -> None:
        copied, dropped = self.manager.release_conversation_gpu(victim.conv_id, now)
        if copied:
            # Copied chunks are full-size except at most the tail, so the
            # ceiling division recovers the exact chunk count.
            chunks = -(-copied // self.manager.chunk_size)
            self._price(Direction.D2H, now, copied, chunks)
        victim.state = RequestState.WAITING
        victim.last_enqueue_time = now
        self.running.remove(victim)
        self.wait_queue.appendleft(victim)
        self.suspensions += 1
        if self.tracer is not None:
            self.tracer.count("engine.suspensions")
        if self._observed:
            self._event(
                victim, "suspend", now,
                copied_tokens=copied, dropped_tokens=dropped,
            )
            if copied:
                self._event(victim, "swap_out", now, tier="cpu", tokens=copied)

    def _reclaim_budget(self, now: float) -> int:
        """Tokens whose ahead-of-time copies have settled and are still
        unconsumed — the amount of lazy reclamation permissible *now*.

        Every exit from the ``GPU_CPU`` state (a reclaim, or a promotion
        back to ``GPU`` when the owning conversation returns) consumes one
        completed copy; the budget is settled copies minus exits.
        """
        while self._copy_log and self._copy_log[0][0] <= now:
            self._settled_tokens += self._copy_log.popleft()[1]
        return max(
            0, self._settled_tokens - self.manager.stats["gpu_cpu_exit_tokens"]
        )

    def _admit(self, now: float) -> List[Request]:
        admitted: List[Request] = []
        batch_tokens = 0
        cfg = self.config
        capacity = self.manager.gpu_capacity_tokens
        base_reserve = int(cfg.generation_reserve * capacity)
        while self.wait_queue:
            request = self.wait_queue[0]
            # Pin while evaluating: the capacity check must not count the
            # candidate's *own* lazily-copied chunks as reclaimable —
            # admitting promotes them back to plain GPU residence.
            self.manager.open(request.conv_id, now)
            # A request resumed after a §4.3.5 suspension already holds its
            # prompt in the cache: it feeds only its last generated token,
            # the way vLLM swaps a preempted sequence back in.
            new_tokens = 1 if request.generated_tokens else request.prompt_tokens
            plan = self.manager.plan_restore(request.conv_id, new_tokens)
            if plan.total_context + 1 > capacity:
                # It could never decode on the GPU tier even alone: fail
                # it now instead of refusing it at the queue head forever.
                self._fail_request(request, now, "context_exceeds_gpu")
                continue
            prefill = plan.prefill_tokens

            def refuse() -> None:
                self.manager.close(request.conv_id, now)

            if len(self.running) + len(admitted) >= cfg.max_running:
                refuse()
                break
            if admitted and batch_tokens + prefill > cfg.max_batch_tokens:
                refuse()
                break
            # §4.3.5: keep 10% of slots free for running generations —
            # but never make a feasible request permanently inadmissible:
            # alone on the GPU, its whole (pinned) context leaves
            # ``capacity - total_context`` slots free.
            reserve = min(base_reserve, capacity - plan.total_context)
            if self.manager.gpu_available_tokens - plan.alloc_tokens < reserve:
                self._swap_out_to(plan.alloc_tokens + reserve, now, "demand")
                refuse()
                break
            # Reclaimed slots are only usable once their ahead-of-time
            # copies have physically landed on the CPU.
            needed_reclaim = plan.alloc_tokens - self.manager.gpu_free_tokens
            if needed_reclaim > 0 and needed_reclaim > self._reclaim_budget(now):
                refuse()
                break
            if not self._attempt(FaultSite.GPU_ALLOC, request):
                # Terminal allocation fault: degrade this request alone
                # (structured error path); admission continues behind it.
                self._fail_request(request, now, "gpu_alloc")
                continue
            self._do_admit(request, plan, now)
            admitted.append(request)
            batch_tokens += prefill
        return admitted

    def _do_admit(self, request, plan, now: float) -> None:
        self.wait_queue.popleft()
        if plan.swap_in_chunks:
            plan = self._restore_with_faults(request, plan, now)
        if plan.swap_in_tokens > 0:
            # One coalesced H2D transfer for every chunk in the plan.
            record = self._price(
                Direction.H2D, now, plan.swap_in_tokens, len(plan.swap_in_chunks)
            )
            self._iter_swap_in_seconds = max(
                self._iter_swap_in_seconds, record.end_time - now
            )
            if self._observed:
                self._event(
                    request, "swap_in", now, record.end_time, tier="cpu",
                    tokens=plan.swap_in_tokens,
                )
        self.manager.commit_restore(plan, now)
        request.prefill_tokens = plan.prefill_tokens
        request.prefill_done = False
        request.state = RequestState.RUNNING
        self.running.append(request)
        self._note_batch_join(request, now)
        if self._observed:
            self._event(
                request, "batch_join", now,
                gpu_hits=plan.gpu_hit_tokens, swap_in=plan.swap_in_tokens,
                recompute=plan.recompute_tokens, new=plan.new_tokens,
            )
        if plan.recompute_tokens > 0:
            hists = self.metrics.hist
            if hists is not None:
                hists.hist("recompute_tokens").record(plan.recompute_tokens)
                # Attribute the modeled cost of re-prefetching dropped
                # tokens: priced exactly like the Figure 8(d) sub-request
                # the kernel would run.
                hists.hist("recompute_est_seconds").record(
                    self.cost_model.iteration_time(
                        BatchShape.of(
                            [(plan.recompute_tokens, plan.recompute_tokens)]
                        ),
                        variant=KernelVariant.PENSIEVE_PAGED,
                    )
                )
            if self._observed:
                self._event(
                    request, "recompute", now, tokens=plan.recompute_tokens
                )
        self._prefill_info[request.request_id] = _PrefillInfo(
            recompute_tokens=plan.recompute_tokens,
            prompt_tokens=plan.new_tokens,
            total_context=plan.total_context,
        )

    def _restore_with_faults(self, request, plan, now: float):
        """Model the swap-in's failure modes before it is priced: a
        terminally failed transfer, or a corrupt read caught by the CPU
        store's checksum, falls back to recomputing the CPU chunks.
        Returns the effective plan."""
        if self.fault_plan is None:
            return plan
        ok = self._retry(FaultSite.SWAP_IN, request)
        corrupt = ok and self.fault_plan.fires(FaultSite.CPU_READ)
        if ok and not corrupt:
            return plan
        plan, invalidated = self.manager.fall_back_to_recompute(
            request.conv_id, plan.new_tokens, now,
            corrupt=len(plan.swap_in_chunks) if corrupt else 0,
            request_id=request.request_id,
        )
        if self._observed:
            self._event(
                request, "fault", now, site=FaultSite.SWAP_IN.value,
                corrupt=corrupt, tokens=invalidated,
            )
        return plan

    def _idle_retry_delay(self, now: float) -> Optional[float]:
        """Retry blocked admissions when the next pending copy settles
        (or shortly, when progress came from instant drops).

        Raises:
            RuntimeError: no later poll can admit (the progress rule):
                nothing runs, no copy is in flight, and nothing changed
                since the previous poll, which admitted nothing either.
        """
        manager, head = self.manager, self.wait_queue[0]
        state = (
            self._iterations, head.request_id, tuple(manager.stats.values()),
            manager.gpu_free_tokens, manager.gpu_available_tokens,
        )
        if (
            state == self._idle_state
            and not self.running
            and all(end <= now for end, _ in self._copy_log)
        ):
            raise RuntimeError(
                f"{self.name}: no progress at iteration {self._iterations}, "
                f"t={now!r}: request {head.request_id} (conversation "
                f"{head.conv_id}) waits, nothing runs, no copy is in flight "
                f"and nothing changed since the previous idle poll"
            )
        self._idle_state = state
        if self._copy_log:
            return max(self._copy_log[0][0] - now, 1e-6)
        return 0.005

    def _swap_out_to(self, target: int, now: float, kind: str) -> None:
        """Copy chunks to the CPU tier until ``target`` GPU tokens are
        obtainable: in the background after every iteration to hold the
        §4.3.2 free-space threshold (``kind="ahead_of_time"``), and
        eagerly when admission is memory-blocked beyond what that
        anticipated (``"demand"``).  The copies are priced as one
        transfer, and become reclaimable in time only when it lands
        (:meth:`_reclaim_budget`)."""
        deficit = target - self.manager.gpu_available_tokens
        if deficit <= 0:
            return
        copied_chunks, copied_tokens = self.manager.swap_out(
            self.manager.reclaimable_tokens + deficit, now
        )
        if copied_tokens:
            record = self._price(Direction.D2H, now, copied_tokens, copied_chunks)
            self._copy_log.append((record.end_time, copied_tokens))
            tracer = self.tracer
            if tracer is not None:
                tracer.complete(
                    "swap_out", now, record.end_time, track="cache",
                    kind=kind, tokens=copied_tokens,
                )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute(self, batch: Sequence[Request], now: float) -> float:
        decode_ids = self._iter_decode_ids
        items: List[Tuple[int, int]] = []
        for request in batch[len(decode_ids):]:
            # Consumed here: a re-admission after a suspension writes a
            # fresh one.
            info = self._prefill_info.pop(request.request_id)
            # Figure 8(d): the recomputed prefix and the new prompt are
            # two sub-requests sharing the context.
            if info.recompute_tokens > 0:
                items.append((info.recompute_tokens, info.recompute_tokens))
            if info.prompt_tokens > 0:
                items.append((info.prompt_tokens, info.total_context))
        # Every decoder's context from one manager call for the batch.
        shape = BatchShape(tuple(items), self.manager.context_lengths(decode_ids))
        compute = self.cost_model.iteration_time(
            shape, variant=KernelVariant.PENSIEVE_PAGED
        )
        # Retry backoff spent this iteration, plus any injected worker
        # stall: with tensor parallelism every iteration ends in an
        # all-reduce, so one straggling worker stalls the whole step.
        extra = self._iter_fault_delay
        if (
            self.fault_plan is not None
            and self.model_config.num_gpus > 1
            and self.fault_plan.fires(FaultSite.WORKER_STEP)
        ):
            extra += WORKER_STALL_SECONDS
            self.metrics.faults.worker_stalls += 1
        transfer = self._iter_swap_in_seconds
        if transfer <= 0.0:
            return compute + extra
        if not self.pipelined_swap_in:
            return transfer + compute + extra
        # §4.3.3: per-layer transfer overlapped with per-layer compute;
        # ``transfer`` already reflects PCIe queueing and duplex effects.
        return extra + CostModel.pipelined_time(
            compute, transfer, self.model_config.num_layers
        )

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _complete(self, batch: Sequence[Request]) -> None:
        super()._complete(batch)
        threshold = self.config.swap_out_threshold * self.manager.gpu_capacity_tokens
        self._swap_out_to(int(threshold), self.loop.now, "ahead_of_time")

    def _on_fail(self, request: Request, now: float) -> None:
        """Degraded request: unpin its conversation but keep the cached
        KV-tokens — a later turn restores or recomputes them normally."""
        if self.manager.conversation(request.conv_id) is not None:
            self.manager.close(request.conv_id, now)

    def _on_finish(self, request: Request, now: float) -> None:
        """Stateful: the conversation's KV-tokens stay cached (§4.3)."""
        try:
            # Account the final output token's KV row as well, so the
            # cached context matches the full conversation history.
            self.manager.append_tokens([request.conv_id], now)
        except CacheCapacityError:
            pass  # cache brim-full; the next turn recomputes one token
        self.manager.close(request.conv_id, now)
