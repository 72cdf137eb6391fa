"""The Pensieve serving engine (the paper's primary contribution).

A stateful, unified-batching engine built on:

- the tiered :class:`~repro.kvcache.manager.TieredCacheManager`
  (token-chunk eviction, lazy reclamation, Figure 5 restore planning,
  optional disk tier with cross-tier retention-value placement);
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
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.gpu.costmodel import BatchShape, CostModel, KernelVariant
from repro.gpu.device import GpuSpec
from repro.gpu.nvme import NvmeEngine
from repro.gpu.pcie import Direction, PcieEngine
from repro.gpu.profiler import OfflineProfiler
from repro.core.eviction import LruPolicy, RetentionValuePolicy
from repro.faults import FaultPlan, FaultSite, RetryPolicy, attempt_with_retries
from repro.kvcache.chunks import Chunk, ChunkLocation, ConversationCache
from repro.kvcache.manager import (
    CacheCapacityError,
    EvictionScorer,
    TierPlacement,
    TieredCacheManager,
)
from repro.model.config import ModelConfig
from repro.serving.batching import BatchConfig
from repro.serving.engine import EngineBase
from repro.serving.request import Request, RequestState
from repro.sim.events import EventLoop


class _RestoreTier(NamedTuple):
    """How one stored tier's retrieval can fail, and what undoes it."""

    site: FaultSite       #: the transfer; retried with backoff
    read_site: FaultSite  #: the store's checksum re-verification
    blamed: FaultSite     #: names the flight ``fault`` and ``<name>_fallback`` events
    chunks: str           #: ``CachePlan`` field listing the tier's chunks
    failures: str         #: ``FaultCounters`` field for terminal transfer failures
    invalidate: str       #: manager verb that gives the tier's chunks up


#: The restore fallback, coldest tier first: a disk failure drops the
#: disk prefix only, and the CPU chunks behind it still swap in.
RESTORE_TIERS = (
    _RestoreTier(
        FaultSite.NVME_STALL, FaultSite.DISK_READ, FaultSite.DISK_READ,
        "disk_read_chunks", "disk_read_failures", "invalidate_disk_prefix",
    ),
    _RestoreTier(
        FaultSite.SWAP_IN, FaultSite.CPU_READ, FaultSite.SWAP_IN,
        "swap_in_chunks", "swap_in_failures", "invalidate_cpu_prefix",
    ),
)

#: ``FaultCounters`` field counting operations at a site that faulted at
#: all, retried-and-recovered ones included.
_FAULTED_AT_ALL = {
    FaultSite.GPU_ALLOC: "alloc_faults",
    FaultSite.NVME_STALL: "nvme_stalls",
}


@dataclass
class _PrefillInfo:
    """Shape bookkeeping for a request admitted this lifetime."""

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
        disk_cache_tokens: disk (NVMe) tier capacity in tokens behind the
            CPU tier; 0 (the default) disables the tier, reproducing the
            two-tier behaviour exactly.  Demotions and disk reads are
            priced by an :class:`~repro.gpu.nvme.NvmeEngine` built from
            the spec's ``nvme_*`` fields.
        placement: cross-tier placement policy (see
            :class:`~repro.core.eviction.TieredPlacementPolicy`); ``None``
            demotes to disk whenever the tier has room.
        policy: ``"retention"`` (default), ``"lru"``, or a custom scorer.
        chunk_size: eviction granularity (32 in the paper).
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
        retry_policy: bounded-backoff budget for transient faults.
    """

    def __init__(
        self,
        loop: EventLoop,
        config: ModelConfig,
        spec: GpuSpec,
        batch_config: Optional[BatchConfig] = None,
        cpu_cache_tokens: Optional[int] = None,
        disk_cache_tokens: int = 0,
        placement: Optional[TierPlacement] = None,
        policy: object = "retention",
        chunk_size: int = 32,
        unified: bool = True,
        pipelined_swap_in: bool = True,
        prioritize_retrieval: bool = True,
        name: Optional[str] = None,
        whole_conversation_eviction: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
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
        self.retry_policy = retry_policy or RetryPolicy()
        self.manager = TieredCacheManager(
            gpu_capacity_tokens=gpu_tokens,
            cpu_capacity_tokens=cpu_cache_tokens,
            disk_capacity_tokens=disk_cache_tokens,
            placement=placement,
            chunk_size=chunk_size,
            scorer=scorer,
            whole_conversation_eviction=whole_conversation_eviction,
            fault_plan=fault_plan,
            fault_counters=self.metrics.faults,
        )
        # Demotions (CPU -> DISK) happen inside manager eviction calls;
        # the observer collects them so each call site can price the
        # whole cluster as ONE coalesced NVMe write.
        self.manager.observer = self._on_transition
        self._pending_demotions: List[int] = []
        # Tensor parallelism shards the KV feature dimension, so each of
        # the N workers moves 1/N of the bytes over its own PCIe link
        # (§4.4.2): aggregate host-link bandwidth scales with num_gpus.
        self.pcie = PcieEngine(
            bandwidth=spec.pcie_bandwidth * config.num_gpus,
            duplex_penalty=spec.pcie_duplex_penalty,
            prioritize_retrieval=prioritize_retrieval,
        )
        # The NVMe drive is a host-side device: unlike the PCIe links its
        # bandwidth does not scale with tensor-parallel width.
        self.nvme = NvmeEngine(
            read_bandwidth=spec.nvme_read_bandwidth,
            write_bandwidth=spec.nvme_write_bandwidth,
            mixed_penalty=spec.nvme_mixed_penalty,
            min_latency=spec.nvme_min_latency,
        )
        self._prefill_info: Dict[int, _PrefillInfo] = {}
        # Per-iteration stash set by _form_batch, consumed by _execute.
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

    # ------------------------------------------------------------------
    # Observability (repro.obs)
    # ------------------------------------------------------------------

    def set_tracer(self, tracer) -> None:
        super().set_tracer(tracer)
        self.manager.tracer = self.tracer
        self.pcie.tracer = self.tracer
        self.nvme.tracer = self.tracer

    def _trace_gauges(self, now: float) -> None:
        tracer = self.tracer
        manager = self.manager
        tracer.gauge("kv.gpu_resident_tokens", manager.gpu_resident_tokens, t=now)
        tracer.gauge("kv.gpu_free_tokens", manager.gpu_free_tokens, t=now)
        tracer.gauge("kv.reclaimable_tokens", manager.reclaimable_tokens, t=now)
        tracer.gauge("kv.evictable_tokens", manager.evictable_gpu_tokens, t=now)
        tracer.gauge("kv.cpu_used_tokens", manager.cpu_used_tokens, t=now)
        if manager.disk_capacity_tokens > 0:
            tracer.gauge("kv.disk_used_tokens", manager.disk_used_tokens, t=now)
        tracer.gauge(
            "kv.fragmentation_tokens", manager.fragmentation_tokens(), t=now
        )

    @staticmethod
    def _resolve_policy(
        policy: object, cost_model: CostModel, chunk_size: int
    ) -> EvictionScorer:
        if policy == "retention":
            profile = OfflineProfiler.from_cost_model(cost_model).profile(
                chunk_size=chunk_size, max_context=16384
            )
            return RetentionValuePolicy(profile)
        if policy == "lru":
            return LruPolicy()
        if callable(policy):
            return policy  # custom scorer
        raise ValueError(f"unknown eviction policy {policy!r}")

    # ------------------------------------------------------------------
    # Disk-tier (NVMe) traffic
    # ------------------------------------------------------------------

    def _on_transition(
        self,
        cache: ConversationCache,
        chunk: Chunk,
        old: ChunkLocation,
        new: ChunkLocation,
    ) -> None:
        """Collect CPU -> DISK demotions for coalesced NVMe pricing."""
        if old is ChunkLocation.CPU and new is ChunkLocation.DISK:
            self._pending_demotions.append(chunk.num_tokens)

    def _flush_demotions(self, now: float) -> None:
        """Price every demotion since the last flush as ONE stacked NVMe
        write — the disk-tier analogue of coalesced PCIe swap-out."""
        if not self._pending_demotions:
            return
        tokens = sum(self._pending_demotions)
        chunks = len(self._pending_demotions)
        self._pending_demotions.clear()
        record = self.nvme.write(
            now,
            tokens * self.model_config.kv_bytes_per_token,
            num_chunks=chunks,
        )
        if self.metrics.hist.enabled:
            self.metrics.hist.hist("swap_out_seconds", tier="disk").record(
                record.end_time - now
            )
        if self.tracer.enabled:
            self.tracer.complete(
                "disk_demote", now, record.end_time, track="cache",
                tokens=tokens, chunks=chunks,
            )

    # ------------------------------------------------------------------
    # Batch formation (§4.2)
    # ------------------------------------------------------------------

    def _retry(self, site: FaultSite, request: Optional[Request]) -> bool:
        """Draw ``site`` once, retrying with bounded backoff; False on
        terminal failure.  Retries and their simulated delay are charged
        to this iteration (the backoff lands on the sim clock via the
        iteration duration)."""
        ok, retries, delay = attempt_with_retries(
            self.fault_plan, site, self.retry_policy, tracer=self.tracer
        )
        faults = self.metrics.faults
        faults.retries += retries
        self._iter_fault_delay += delay
        counter = _FAULTED_AT_ALL.get(site)
        if counter is not None and (retries > 0 or not ok):
            faults.bump(counter)
        flight = self.metrics.flight
        if flight.enabled and request is not None and retries > 0:
            flight.record(
                request.request_id, "retry", self.loop.now,
                count=retries, site=site.value,
            )
        return ok

    def _attempt(self, site: FaultSite, request: Optional[Request] = None) -> bool:
        """Try one faultable operation; returns False on terminal failure."""
        if self.fault_plan is None:
            return True
        ok = self._retry(site, request)
        flight = self.metrics.flight
        if flight.enabled and request is not None and not ok:
            flight.record(
                request.request_id, "fault", self.loop.now, site=site.value
            )
        return ok

    def _form_batch(self, now: float) -> List[Request]:
        self._iter_swap_in_seconds = 0.0
        self._iter_fault_delay = 0.0
        decoders = self._grow_decoders(now)
        admitted = self._admit(now)
        if admitted and not self.unified:
            # Figure 13 ablation: prefill runs as its own (often small)
            # batch while decoders stall for the iteration.
            return admitted
        return decoders + admitted

    def _grow_decoders(self, now: float) -> List[Request]:
        """Allocate each running request's next KV slot, suspending
        requests if the GPU cache is exhausted (§4.3.5: the
        latest-arrived request is the victim).  Surviving decoders keep
        their running order, so batch composition stays stable between
        iterations."""
        decoders = [r for r in self.running if r.state is RequestState.RUNNING]
        while decoders and self.manager.gpu_available_tokens < len(decoders):
            victim = max(decoders, key=lambda r: (r.arrival_time, r.request_id))
            self._suspend(victim, now)
            decoders.remove(victim)
        grown: List[Request] = []
        for request in decoders:
            if not self._attempt(FaultSite.GPU_ALLOC, request):
                # Allocation kept failing past the retry budget: this
                # request alone degrades; its siblings keep decoding.
                self._fail_request(request, now, "gpu_alloc")
                continue
            try:
                self.manager.append_tokens(request.conv_id, 1)
            except CacheCapacityError:
                self._suspend(request, now)
                continue
            grown.append(request)
        return grown

    def _price_swap_out(self, now: float, tokens: int, num_chunks: int):
        """Price ``tokens`` leaving the GPU as ONE coalesced D2H transfer
        of ``num_chunks`` chunks; returns the PCIe record."""
        record = self.pcie.swap_out(
            now, tokens * self.model_config.kv_bytes_per_token, num_chunks=num_chunks
        )
        if self.metrics.hist.enabled:
            self.metrics.hist.hist("swap_out_seconds", tier="cpu").record(
                record.end_time - now
            )
        return record

    def _suspend(self, victim: Request, now: float) -> None:
        copied, dropped = self.manager.release_conversation_gpu(victim.conv_id, now)
        if copied:
            # Copied chunks are full-size except at most the tail, so the
            # ceiling division recovers the exact chunk count.
            self._price_swap_out(now, copied, -(-copied // self.manager.chunk_size))
        victim.state = RequestState.WAITING
        victim.last_enqueue_time = now
        self.running.remove(victim)
        self.wait_queue.appendleft(victim)
        self.suspensions += 1
        if self.metrics.flight.enabled:
            self.metrics.flight.record(
                victim.request_id, "suspend", now,
                copied_tokens=copied, dropped_tokens=dropped,
            )
            if copied:
                self.metrics.flight.record(
                    victim.request_id, "swap_out", now, tier="cpu",
                    tokens=copied,
                )
        if self.tracer.enabled:
            self.tracer.count("engine.suspensions")
            self.tracer.instant(
                "suspend", t=now, track="engine",
                request_id=victim.request_id, conv_id=victim.conv_id,
                copied_tokens=copied, dropped_tokens=dropped,
            )

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
            plan = self.manager.plan_restore(request.conv_id, request.prompt_tokens)
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
            # but never make a feasible request permanently inadmissible.
            reserve = min(base_reserve, max(0, capacity - plan.alloc_tokens))
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
        for tier in RESTORE_TIERS:
            if getattr(plan, tier.chunks):
                plan = self._restore_with_faults(tier, request, plan, now)
        h2d_enqueue = now
        if plan.disk_read_tokens > 0:
            # One coalesced NVMe read brings the disk prefix into host
            # memory; its bytes then ride the same H2D transfer as the
            # CPU-resident chunks, enqueued when the read lands.
            disk_bytes = (
                plan.disk_read_tokens * self.model_config.kv_bytes_per_token
            )
            record = self.nvme.read(
                now, disk_bytes, num_chunks=len(plan.disk_read_chunks)
            )
            h2d_enqueue = record.end_time
            if self.metrics.hist.enabled:
                self.metrics.hist.hist("swap_in_seconds", tier="disk").record(
                    record.end_time - now
                )
            if self.metrics.flight.enabled:
                self.metrics.flight.record(
                    request.request_id, "swap_in", now, tier="disk",
                    tokens=plan.disk_read_tokens,
                )
            if self.tracer.enabled:
                self.tracer.complete(
                    "disk_read", now, record.end_time, track="cache",
                    request_id=request.request_id, conv_id=request.conv_id,
                    tokens=plan.disk_read_tokens,
                )
        h2d_tokens = plan.swap_in_tokens + plan.disk_read_tokens
        if h2d_tokens > 0:
            swap_bytes = h2d_tokens * self.model_config.kv_bytes_per_token
            # One coalesced H2D transfer for every chunk in the plan.
            record = self.pcie.swap_in(
                h2d_enqueue,
                swap_bytes,
                num_chunks=len(plan.swap_in_chunks) + len(plan.disk_read_chunks),
            )
            self._iter_swap_in_seconds = max(
                self._iter_swap_in_seconds, record.end_time - now
            )
            if self.metrics.hist.enabled:
                self.metrics.hist.hist("swap_in_seconds", tier="cpu").record(
                    record.end_time - now
                )
            if self.metrics.flight.enabled:
                self.metrics.flight.record(
                    request.request_id, "swap_in", now, tier="cpu",
                    tokens=h2d_tokens,
                )
            if self.tracer.enabled:
                self.tracer.complete(
                    "swap_in", now, record.end_time, track="cache",
                    request_id=request.request_id, conv_id=request.conv_id,
                    tokens=h2d_tokens,
                )
        self.manager.commit_restore(plan, now)
        request.prefill_tokens = plan.prefill_tokens
        request.prefill_done = False
        request.state = RequestState.RUNNING
        self.running.append(request)
        self._note_batch_join(request, now)
        metrics = self.metrics
        if plan.recompute_tokens > 0:
            if metrics.hist.enabled:
                metrics.hist.hist("recompute_tokens").record(
                    plan.recompute_tokens
                )
                # Attribute the modeled cost of re-prefetching dropped
                # tokens: priced exactly like the Figure 8(d) sub-request
                # the kernel would run.
                metrics.hist.hist("recompute_est_seconds").record(
                    self.cost_model.iteration_time(
                        BatchShape.of(
                            [(plan.recompute_tokens, plan.recompute_tokens)]
                        ),
                        variant=KernelVariant.PENSIEVE_PAGED,
                    )
                )
            if metrics.flight.enabled:
                metrics.flight.record(
                    request.request_id, "recompute", now,
                    tokens=plan.recompute_tokens,
                )
        self._prefill_info[request.request_id] = _PrefillInfo(
            recompute_tokens=plan.recompute_tokens,
            prompt_tokens=plan.new_tokens,
            total_context=plan.total_context,
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "admit", t=now, track="engine",
                request_id=request.request_id, conv_id=request.conv_id,
                gpu_hits=plan.gpu_hit_tokens, swap_in=plan.swap_in_tokens,
                disk_read=plan.disk_read_tokens,
                recompute=plan.recompute_tokens, new=plan.new_tokens,
            )
            if plan.recompute_tokens > 0:
                self.tracer.instant(
                    "recompute", t=now, track="cache",
                    request_id=request.request_id, conv_id=request.conv_id,
                    tokens=plan.recompute_tokens,
                )

    def _restore_with_faults(self, tier: "_RestoreTier", request, plan, now: float):
        """Model one stored tier's retrieval failure modes before it is
        priced (``tier`` is a row of :data:`RESTORE_TIERS`).

        A terminally-failed transfer, or a corrupt read caught by the
        store checksum, falls back to the §4.3.4 recomputation path: the
        tier's chunks are invalidated (``-> DROPPED``) and the restore
        plan is recomputed — ``alloc_tokens`` is unchanged (the tier's
        tokens become recompute tokens), so the admission checks already
        performed remain valid.  Returns the effective plan.
        """
        if self.fault_plan is None:
            return plan
        faults = self.metrics.faults
        flight = self.metrics.flight
        ok = self._retry(tier.site, request)
        corrupt = ok and self.fault_plan.fires(tier.read_site)
        if ok and not corrupt:
            return plan
        if not ok:
            faults.bump(tier.failures)
        if corrupt:
            faults.corrupted_chunks += len(getattr(plan, tier.chunks))
        faults.recompute_fallbacks += 1
        invalidated = getattr(self.manager, tier.invalidate)(request.conv_id)
        if flight.enabled:
            flight.record(
                request.request_id, "fault", now, site=tier.blamed.value,
                corrupt=corrupt, tokens=invalidated,
            )
        if self.tracer.enabled:
            self.tracer.count("fault.recompute_fallbacks")
            self.tracer.instant(
                f"{tier.blamed.value}_fallback", t=now, track="cache",
                request_id=request.request_id, conv_id=request.conv_id,
                tokens=invalidated, corrupt=corrupt,
            )
        return self.manager.plan_restore(request.conv_id, request.prompt_tokens)

    def _idle_retry_delay(self, now: float) -> Optional[float]:
        """Retry blocked admissions when the next pending copy settles
        (or shortly, when progress came from instant drops)."""
        if self._copy_log:
            return max(self._copy_log[0][0] - now, 1e-6)
        return 0.005

    def _swap_out_to(self, target: int, now: float, kind: str) -> None:
        """Copy chunks to the CPU tier until ``target`` GPU tokens are
        obtainable: in the background after every iteration to hold the
        §4.3.2 free-space threshold (``kind="ahead_of_time"``), and
        eagerly when admission is memory-blocked beyond what that
        anticipated (``"demand"``).  The copies, and the demotions they
        forced, are priced as one transfer each, and become reclaimable
        in time only when the transfer lands (:meth:`_reclaim_budget`)."""
        deficit = target - self.manager.gpu_available_tokens
        if deficit <= 0:
            return
        copied = self.manager.swap_out(self.manager.reclaimable_tokens + deficit, now)
        self._flush_demotions(now)
        copied_tokens = sum(c.num_tokens for c in copied)
        if copied_tokens:
            record = self._price_swap_out(now, copied_tokens, len(copied))
            self._copy_log.append((record.end_time, copied_tokens))
            if self.tracer.enabled:
                self.tracer.complete(
                    "swap_out", now, record.end_time, track="cache",
                    kind=kind, tokens=copied_tokens,
                )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute(self, batch: Sequence[Request], now: float) -> float:
        items = []
        for request in batch:
            if request.prefill_done:
                ctx = self.manager.conversation(request.conv_id).total_tokens
                items.append((1, ctx))
            else:
                info = self._prefill_info[request.request_id]
                # Figure 8(d): the recomputed prefix and the new prompt are
                # two sub-requests sharing the context.
                if info.recompute_tokens > 0:
                    items.append((info.recompute_tokens, info.recompute_tokens))
                if info.prompt_tokens > 0:
                    items.append((info.prompt_tokens, info.total_context))
        shape = BatchShape.of(items)
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
            extra += self.fault_plan.stall_seconds
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
            self.manager.append_tokens(request.conv_id, 1)
        except CacheCapacityError:
            pass  # cache brim-full; the next turn recomputes one token
        self.manager.close(request.conv_id, now)
