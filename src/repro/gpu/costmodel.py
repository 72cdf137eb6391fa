"""Analytical roofline cost model for transformer inference.

This module converts *batch shapes* — how many query tokens each request
contributes and how long each request's context is — into kernel execution
times on a :class:`~repro.gpu.device.GpuSpec`.  It replaces wall-clock
measurement on the paper's A100 testbed.

The model is a classic roofline: every operator is characterised by its FLOP
count and its device-memory traffic, and its execution time is the maximum
of the compute time and the memory time, plus a fixed launch overhead.  The
FLOP/byte counts are exact analytical functions of the
:class:`~repro.model.config.ModelConfig` hyper-parameters, so the model
reproduces the structural effects every Pensieve result rests on:

- prefill is compute-bound and grows linearly with history length
  (Figure 3), while generation is memory-bound;
- attention cost for a fixed-size chunk grows linearly with context size
  (Figure 4), which motivates evicting leading tokens first;
- GQA models (Llama 2) have 4-8x smaller KV-token footprints, so caching
  helps them more (§6.2);
- larger models grow compute faster than KV size, amplifying Pensieve's
  advantage at 4 GPUs (§6.3).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

from repro.gpu.device import GpuSpec
from repro.model.config import ModelConfig


class KernelVariant(enum.Enum):
    """Attention kernel implementations compared in Figure 12."""

    #: Hypothetical best case: past KV-tokens in contiguous memory, fused
    #: multi-token attention kernel.
    IDEAL_CONTIGUOUS = "ideal"
    #: Pensieve's multi-token attention over non-contiguous pages.  Matches
    #: the ideal kernel; slightly faster because auxiliary index arithmetic
    #: (cumulative sequence lengths) is offloaded to the CPU and shared
    #: across layers (§6.4).
    PENSIEVE_PAGED = "pensieve"
    #: Straw-man 1: copy scattered KV-tokens into a freshly allocated
    #: contiguous buffer, then run the fused kernel.
    COPYOUT = "copyout"
    #: Straw-man 2: run vLLM's single-token PagedAttention once per query
    #: token, giving up query-dimension parallelism.
    MULTIROUND_PAGED = "multiround"


@dataclass(frozen=True)
class BatchShape:
    """Shape of one batched model iteration.

    A request contributes ``(query_len, context_len)``: ``query_len`` is
    the number of new tokens it processes this step (1 in its generation
    phase, the prompt length in its prefill phase) and ``context_len`` is
    the total context the *last* of those tokens attends to, i.e. cached
    history plus ``query_len``.  Decoders, whose ``query_len`` is always 1,
    are given as ``decode_contexts`` (their context lengths); every other
    item, such as a prefill or a recompute sub-request, as ``prefill_items``.

    The shape computes its three totals once: query tokens, causal
    flop-tokens (``causal_attention_flop_tokens`` summed, which is ``c``
    for a decoder) and context tokens.  Each is an integer sum, so the
    order of the items does not matter.  Both sequences are stored as
    tuples, so changing the caller's list afterwards leaves the shape
    as it was.  Two shapes are equal when they were given in the same
    form: decoders given as ``(1, c)`` prefill items make a shape with
    the same ``items`` and price, but not an equal one.

    Raises:
        TypeError: a count is not a whole number (``operator.index``
            refuses it; NumPy integers pass).
        ValueError: an item does not satisfy ``0 <= query_len <=
            context_len``.
    """

    prefill_items: Tuple[Tuple[int, int], ...] = ()
    decode_contexts: Sequence[int] = ()
    total_query_tokens: int = field(init=False)
    flop_tokens: int = field(init=False)
    context_tokens: int = field(init=False)

    def __post_init__(self) -> None:
        prefill = tuple(self.prefill_items)
        decode = tuple(self.decode_contexts)
        object.__setattr__(self, "prefill_items", prefill)
        object.__setattr__(self, "decode_contexts", decode)
        query = flop_tokens = contexts = 0
        for query_len, context_len in prefill:
            q, c = _whole(query_len, context_len)
            if not 0 <= q <= c:
                _refuse(q, c)
            query += q
            flop_tokens += q * c - q * q + q * (q + 1) // 2
            contexts += c
        if decode:
            # A sum of integers is an integer: a fractional context makes
            # it a float, which ``operator.index`` refuses.
            try:
                total = operator.index(sum(decode))
            except TypeError:
                raise TypeError(
                    f"decode contexts {decode!r} are not whole numbers"
                ) from None
            smallest = min(decode)
            if smallest < 1:
                _refuse(1, smallest)
            query += len(decode)
            flop_tokens += total
            contexts += total
        object.__setattr__(self, "total_query_tokens", query)
        object.__setattr__(self, "flop_tokens", flop_tokens)
        object.__setattr__(self, "context_tokens", contexts)

    @classmethod
    def of(cls, items: Iterable[Sequence[int]]) -> "BatchShape":
        """Build a shape from any iterable of ``(query_len, context_len)``."""
        return cls(tuple(_whole(q, c) for q, c in items))

    @classmethod
    def uniform(cls, batch_size: int, query_len: int, context_len: int) -> "BatchShape":
        """A batch of ``batch_size`` identical requests."""
        return cls(((query_len, context_len),) * batch_size)

    @property
    def items(self) -> Tuple[Tuple[int, int], ...]:
        """Every ``(query_len, context_len)``: the decoders, then the rest."""
        return tuple((1, c) for c in self.decode_contexts) + self.prefill_items

    def __len__(self) -> int:
        return len(self.decode_contexts) + len(self.prefill_items)


def _whole(query_len: int, context_len: int) -> Tuple[int, int]:
    """Both counts as ``int``; a fraction (or a float at all) is refused."""
    try:
        return operator.index(query_len), operator.index(context_len)
    except TypeError:
        raise TypeError(
            f"batch item ({query_len!r}, {context_len!r}) is not whole numbers"
        ) from None


def _refuse(query_len: int, context_len: int) -> None:
    """Name why an item fails ``0 <= query_len <= context_len``."""
    if query_len < 0 or context_len < 0:
        raise ValueError(f"negative batch item ({query_len}, {context_len})")
    raise ValueError(f"query_len {query_len} exceeds context_len {context_len}")


def causal_attention_flop_tokens(query_len: int, context_len: int) -> float:
    """Sum over the query chunk of per-token attended context lengths.

    With causal masking, query token ``i`` (0-based, the chunk occupying the
    last ``query_len`` positions of a ``context_len``-token context) attends
    to ``context_len - query_len + i + 1`` tokens.  The closed-form sum is
    used by both the cost model and the eviction-policy profiler.
    """
    if query_len == 0:
        return 0.0
    q, c = float(query_len), float(context_len)
    return q * c - q * q + q * (q + 1.0) / 2.0


class CostModel:
    """Roofline execution-time model for one model on one GPU type.

    Args:
        config: model hyper-parameters.
        spec: hardware description.
        fusion_factor: multiplier (< 1 is faster) applied to non-attention
            compute time and per-step overhead.  Models TensorRT-LLM's
            offline graph rewriting / operator fusion advantage over
            PyTorch execution (§6.2: "TensorRT-LLM outperforms vLLM
            consistently" for exactly this reason).
    """

    def __init__(
        self,
        config: ModelConfig,
        spec: GpuSpec,
        fusion_factor: float = 1.0,
    ) -> None:
        if fusion_factor <= 0.0:
            raise ValueError(f"fusion_factor must be positive, got {fusion_factor}")
        self.config = config
        self.spec = spec
        self.fusion_factor = fusion_factor
        # Per-model constants, computed once: ``config`` and ``spec`` are
        # frozen, and each is the value the formulas below recomputed on
        # every call.
        tp = config.num_gpus
        self._linear_flops_per_token = config.linear_flops_per_token()
        self._weight_bytes = config.weight_bytes / tp
        self._flops = spec.effective_flops
        self._hbm_bandwidth = spec.effective_hbm_bandwidth
        self._attention_flops_per_token = (
            2.0 * 2.0 * config.hidden_size * config.num_layers
        )
        self._kv_bytes_per_token = config.kv_bytes_per_token
        self._launch = config.num_layers * spec.kernel_launch_overhead
        self._step_overhead = spec.step_overhead * fusion_factor

    # ------------------------------------------------------------------
    # Non-attention (linear) operators
    # ------------------------------------------------------------------

    def linear_time(self, num_tokens: int) -> float:
        """Execution time of all non-attention operators for one iteration.

        Compute: ``num_tokens`` tokens through every linear layer, divided
        across tensor-parallel GPUs.  Memory: the full (per-GPU) weight
        matrix is streamed once per iteration — this is what makes small
        decode batches memory-bound and large prefill batches compute-bound.
        """
        if num_tokens <= 0:
            return 0.0
        config = self.config
        flops = num_tokens * self._linear_flops_per_token / config.num_gpus
        activation_bytes = (
            3.0 * num_tokens * config.hidden_size * config.dtype_bytes
            * config.num_layers
        )
        compute = flops / self._flops
        memory = (self._weight_bytes + activation_bytes) / self._hbm_bandwidth
        return max(compute, memory) * self.fusion_factor + self._allreduce_time(num_tokens)

    def _allreduce_time(self, num_tokens: int) -> float:
        """Tensor-parallel all-reduce time for one iteration (all layers).

        Two all-reduces per layer (after the attention output projection and
        after the MLP), ring-style: each GPU moves ``2 (N-1)/N`` of the
        activation volume over NVLink, plus a fixed latency per collective.
        """
        tp = self.config.num_gpus
        if tp <= 1:
            return 0.0
        volume = num_tokens * self.config.hidden_size * self.config.dtype_bytes
        per_collective = (
            2.0 * (tp - 1) / tp * volume / self.spec.nvlink_bandwidth + 20e-6
        )
        return 2.0 * self.config.num_layers * per_collective

    # ------------------------------------------------------------------
    # Attention operator
    # ------------------------------------------------------------------

    def attention_time(
        self,
        batch: BatchShape,
        variant: KernelVariant = KernelVariant.PENSIEVE_PAGED,
    ) -> float:
        """Execution time of the attention operator for one iteration.

        The base (ideal) time is a roofline over the causal-masked
        score/aggregate FLOPs and the KV-cache bytes read; the Figure 12
        variants add their respective overheads on top.
        """
        base = self._ideal_attention_time(batch)
        if variant is KernelVariant.IDEAL_CONTIGUOUS:
            return base
        if variant is KernelVariant.PENSIEVE_PAGED:
            # Auxiliary index computation (cumulative sequence lengths) is
            # done once on the CPU and shared by all layers, shaving the
            # small per-layer setup cost the ideal kernel pays (§6.4).
            return base * 0.97
        if variant is KernelVariant.COPYOUT:
            return base + self._copyout_time(batch)
        if variant is KernelVariant.MULTIROUND_PAGED:
            return self._multiround_time(batch)
        raise ValueError(f"unknown kernel variant {variant!r}")

    def _ideal_attention_time(self, batch: BatchShape) -> float:
        tp = self.config.num_gpus
        # The shape's integer sums of ``causal_attention_flop_tokens`` and
        # of the contexts: each float term there is an integer below
        # 2**53, so its sum is exact and these are the same numbers.
        flops = self._attention_flops_per_token * batch.flop_tokens / tp
        kv_bytes = batch.context_tokens * self._kv_bytes_per_token / tp
        compute = flops / self._flops
        memory = kv_bytes / self._hbm_bandwidth
        return max(compute, memory) + self._launch

    def _copyout_time(self, batch: BatchShape) -> float:
        """Cost of copying past KV-tokens into fresh contiguous memory.

        Each past KV-token is read and written once per layer (the copy runs
        per layer because each layer's cache pages are independent).
        """
        tp = self.config.num_gpus
        past_tokens = batch.context_tokens - batch.total_query_tokens
        copy_bytes = 2.0 * past_tokens * self.config.kv_bytes_per_token / tp
        launch = self.config.num_layers * self.spec.kernel_launch_overhead
        return copy_bytes / self.spec.effective_hbm_bandwidth + launch

    def _multiround_time(self, batch: BatchShape) -> float:
        """Cost of one single-token PagedAttention round per query token.

        Round ``i`` processes the ``i``-th query token of every request that
        still has one, re-reading that request's (growing) context from HBM;
        the query-dimension parallelism of the fused kernel is lost and each
        round pays its own kernel launches.
        """
        tp = self.config.num_gpus
        max_q = max((q for q, _ in batch.items), default=0)
        total = 0.0
        for i in range(max_q):
            round_bytes = 0.0
            round_flops = 0.0
            for q, c in batch.items:
                if i < q:
                    ctx = c - q + i + 1
                    round_bytes += ctx * self.config.kv_bytes_per_token
                    round_flops += (
                        2.0 * 2.0 * self.config.hidden_size * self.config.num_layers * ctx
                    )
            compute = round_flops / tp / self.spec.effective_flops
            memory = round_bytes / tp / self.spec.effective_hbm_bandwidth
            launch = self.config.num_layers * self.spec.kernel_launch_overhead
            total += max(compute, memory) + launch
        return total

    # ------------------------------------------------------------------
    # Full iteration
    # ------------------------------------------------------------------

    def iteration_time(
        self,
        batch: BatchShape,
        variant: KernelVariant = KernelVariant.PENSIEVE_PAGED,
    ) -> float:
        """Compute time of one full model iteration over ``batch``.

        Swap-in transfers are priced by the caller on its PCIe link and
        overlapped with this time through :meth:`pipelined_time`.

        Args:
            batch: the iteration's batch shape.
            variant: attention kernel implementation.
        """
        if len(batch) == 0:
            return 0.0
        return (
            self.linear_time(batch.total_query_tokens)
            + self.attention_time(batch, variant)
            + self._step_overhead
        )

    @staticmethod
    def pipelined_time(compute: float, transfer: float, num_layers: int) -> float:
        """Completion time of layer-wise transfer/compute pipelining.

        Both the transfer and the compute are split evenly across
        ``num_layers`` stages; layer ``i``'s compute may start only after
        its slice of the transfer has landed (§4.3.3).  The closed form of
        the two-stage pipeline recurrence is
        ``max(n*Tc + Tt, n*Tt + Tc)`` for per-layer times ``Tc``/``Tt``.
        """
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        per_compute = compute / num_layers
        per_transfer = transfer / num_layers
        return max(
            compute + per_transfer,
            transfer + per_compute,
        )

    # ------------------------------------------------------------------
    # Figure 3 / Figure 4 helpers
    # ------------------------------------------------------------------

    def prefill_time(self, batch_size: int, prompt_len: int, history_len: int) -> float:
        """Prefill time for a batch of identical requests.

        ``history_len`` tokens of already-available context precede the
        ``prompt_len`` new tokens (for a stateless system the history is
        part of the prompt and must be passed as ``prompt_len`` instead).
        """
        shape = BatchShape.uniform(batch_size, prompt_len, history_len + prompt_len)
        return self.iteration_time(shape)

    def generation_time(self, batch_size: int, context_len: int, steps: int) -> float:
        """Total time of ``steps`` decode iterations with growing context."""
        total = 0.0
        for i in range(steps):
            shape = BatchShape.uniform(batch_size, 1, context_len + i + 1)
            total += self.iteration_time(shape)
        return total

    def attention_chunk_time(
        self, chunk: int, context_len: int, batch_size: int = 1
    ) -> float:
        """Per-layer attention time for a ``chunk`` of tokens (Figure 4).

        The chunk occupies the final ``chunk`` positions of a
        ``context_len``-token context; ``batch_size`` identical requests are
        processed together (the paper's Figure 4 uses 32) and the reported
        time is the per-chunk share, making it directly comparable with
        :meth:`non_attention_chunk_time`.
        """
        shape = BatchShape.uniform(batch_size, chunk, context_len)
        per_batch = self._ideal_attention_time(shape) / self.config.num_layers
        return per_batch / batch_size

    def non_attention_chunk_time(self, chunk: int, batch_size: int = 1) -> float:
        """Per-layer non-attention time for ``batch_size`` chunks (Figure 4).

        Reported as the *marginal* (batch-amortized) cost per chunk: the
        weight matrices are streamed once for the whole serving batch, so a
        single chunk's share is its compute time, not the full weight
        traffic.  This is also what the eviction policy's constant ``c``
        should capture — the recomputation of a chunk always happens inside
        an already-running batch.
        """
        tokens = chunk * batch_size
        tp = self.config.num_gpus
        flops = tokens * self.config.linear_flops_per_token() / tp
        compute = flops / self.spec.effective_flops * self.fusion_factor
        per_batch = (compute + self._allreduce_time(tokens)) / self.config.num_layers
        return per_batch / batch_size
