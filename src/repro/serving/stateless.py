"""Stateless baseline engines: vLLM and TensorRT-LLM.

Both baselines follow the behaviour the paper ascribes to them (§6.1):

- **stateless across requests**: all KV slots are released the moment a
  request finishes, so every follow-up turn re-prefills the whole
  conversation history alongside the new prompt;
- **paged KV cache** with iteration-level batching;
- **separate prefill and decode batches** (§4.2: "vLLM only forms a batch
  among requests in the same phase"), with prefill prioritised;
- **recompute preemption**: when decoding runs out of KV slots, the
  latest-arrived running request is evicted and later re-prefilled from
  raw tokens (vLLM v0.2.0's default preemption mode).

TensorRT-LLM is modelled as the same scheduler with a kernel-fusion speed
factor on non-attention work, matching the paper's explanation of why it
beats vLLM ("graph rewriting ... executes the optimized model using the
TensorRT Runtime").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.gpu.costmodel import BatchShape, CostModel, KernelVariant
from repro.gpu.device import GpuSpec
from repro.model.config import ModelConfig
from repro.serving.batching import BatchConfig
from repro.serving.engine import EngineBase
from repro.serving.request import Request, RequestState
from repro.sim.events import EventLoop

#: Speedup of TensorRT-LLM's compiled runtime over PyTorch-driven
#: execution on non-attention operators (calibrated once against the
#: Figure 10 vLLM/TensorRT-LLM gaps).
TENSORRT_FUSION_FACTOR = 0.80


class StatelessEngine(EngineBase):
    """A stateless paged-KV serving engine (vLLM / TensorRT-LLM shaped)."""

    def __init__(
        self,
        name: str,
        loop: EventLoop,
        config: ModelConfig,
        spec: GpuSpec,
        batch_config: Optional[BatchConfig] = None,
        fusion_factor: float = 1.0,
    ) -> None:
        cost_model = CostModel(config, spec, fusion_factor=fusion_factor)
        super().__init__(name, loop, cost_model, batch_config)
        self.model_config = config
        self.spec = spec
        total_kv_bytes = spec.kv_cache_bytes * config.num_gpus
        self.gpu_capacity_tokens = int(total_kv_bytes // config.kv_bytes_per_token)
        self._allocated: Dict[int, int] = {}
        self._phase = "decode"

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------

    @property
    def used_tokens(self) -> int:
        return sum(self._allocated.values())

    @property
    def free_tokens(self) -> int:
        return self.gpu_capacity_tokens - self.used_tokens

    def _allocate(self, request: Request, tokens: int) -> None:
        self._allocated[request.request_id] = (
            self._allocated.get(request.request_id, 0) + tokens
        )

    def _release(self, request: Request) -> int:
        return self._allocated.pop(request.request_id, 0)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _form_batch(self, now: float) -> List[Request]:
        admitted = self._try_admit(now)
        if admitted:
            self._phase = "prefill"
            return admitted
        self._phase = "decode"
        return self._decode_batch(now)

    def _try_admit(self, now: float) -> List[Request]:
        """Form a prefill batch from the wait queue (FCFS, prefill first)."""
        selected: List[Request] = []
        batch_tokens = 0
        while self.wait_queue:
            request = self.wait_queue[0]
            # A stateless engine re-prefills history + prompt (+ any tokens
            # generated before a preemption).
            prefill = (
                request.history_tokens
                + request.prompt_tokens
                + request.generated_tokens
            )
            if prefill > self.gpu_capacity_tokens:
                # Larger than the whole tier: it could never be admitted.
                self._fail_request(request, now, "context_exceeds_gpu")
                continue
            if len(self.running) + len(selected) >= self.config.max_running:
                break
            if selected and batch_tokens + prefill > self.config.max_batch_tokens:
                break
            need = prefill  # context slots for the prefilled tokens
            if need > self.free_tokens:
                break
            self.wait_queue.popleft()
            self._allocate(request, need)
            request.prefill_tokens = prefill
            request.prefill_done = False
            request.state = RequestState.RUNNING
            self.running.append(request)
            self._note_batch_join(request, now)
            if self._observed:
                self._event(request, "batch_join", now)
            selected.append(request)
            batch_tokens += prefill
        return selected

    def _decode_batch(self, now: float) -> List[Request]:
        """All running requests decode together; preempt if out of memory."""
        decoders = [r for r in self.running if r.state is RequestState.RUNNING]
        # Each decoding request needs one more KV slot this iteration.
        while decoders and self.free_tokens < len(decoders):
            victim = max(decoders, key=lambda r: (r.arrival_time, r.request_id))
            self._preempt(victim, now)
            decoders.remove(victim)
        for request in decoders:
            self._allocate(request, 1)
        return decoders

    def _preempt(self, victim: Request, now: float) -> None:
        """Recompute-preemption: drop the victim's KV, requeue it."""
        freed = self._release(victim)
        victim.state = RequestState.WAITING
        victim.last_enqueue_time = now
        self.running.remove(victim)
        # Re-admit before younger requests: push to the queue front.
        self.wait_queue.appendleft(victim)
        if self._observed:
            self._event(
                victim, "suspend", now, kind="preempt", dropped_tokens=freed
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute(self, batch: Sequence[Request], now: float) -> float:
        if self._phase == "prefill":
            shape = BatchShape.of(
                [(r.prefill_tokens, r.prefill_tokens) for r in batch]
            )
        else:
            # The allocation count is exactly the context size including
            # this iteration's new token (slots were taken in
            # ``_decode_batch``).
            allocated = self._allocated
            shape = BatchShape(
                decode_contexts=[allocated[r.request_id] for r in batch]
            )
        return self.cost_model.iteration_time(
            shape, variant=KernelVariant.IDEAL_CONTIGUOUS
        )

    def _on_finish(self, request: Request, now: float) -> None:
        """Stateless: de-allocate every slot immediately (§2.2)."""
        self._release(request)


def make_vllm(
    loop: EventLoop,
    config: ModelConfig,
    spec: GpuSpec,
    batch_config: Optional[BatchConfig] = None,
) -> StatelessEngine:
    """The vLLM baseline (PyTorch-speed execution)."""
    return StatelessEngine(
        "vLLM", loop, config, spec, batch_config, fusion_factor=1.0
    )


def make_tensorrt_llm(
    loop: EventLoop,
    config: ModelConfig,
    spec: GpuSpec,
    batch_config: Optional[BatchConfig] = None,
) -> StatelessEngine:
    """The TensorRT-LLM baseline (compiled-kernel execution)."""
    return StatelessEngine(
        "TensorRT-LLM", loop, config, spec, batch_config,
        fusion_factor=TENSORRT_FUSION_FACTOR,
    )
