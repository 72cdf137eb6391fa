"""A paged-KV-cache transformer in numpy.

:class:`PagedTransformer` runs real forward passes for batches of requests
whose KV caches live at arbitrary physical slots of a
:class:`~repro.kvcache.storage.KVStorage`.  It supports both paper
architectures (OPT and Llama 2) and the full Pensieve request shape:

- unified batches mixing prefill (multi-token) and generation
  (single-token) requests (§4.2);
- contexts scattered over non-contiguous pages (Figure 6);
- requests whose input tokens cover two disconnected context ranges —
  recomputed dropped prefix + new prompt — via Figure 8(d) sub-request
  splitting.

The model is intentionally small-scale (tests use 2-4 layers, hidden 32)
but architecturally faithful; it exists to prove the serving machinery
end-to-end: a conversation served over many turns with arbitrary
swap-out/swap-in/drop traffic must produce *identical* logits to a
stateless from-scratch run.

A forward has two jobs: write every input row's K/V into the paged cache
and produce each request's next token.  :meth:`PagedTransformer.forward`
pays only for those.  Layers ``0..L-2`` run every row, because their K/V
are the cache; the last layer projects, rotates and writes K/V for every
row but runs its query, attention, output projection and MLP — and the
final norm and LM head — on each request's last row only.
:meth:`~PagedTransformer.forward_all_rows` is the same body keeping every
row, for teacher-forcing checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backends import Backend, get_backend
from repro.kernels import (
    AttentionRequest,
    disjoint_query_spans,
    split_disjoint_query,
)
from repro.kernels.packed_cache import (
    DecodeSlotSource,
    PackedBatch,
    PackedDecodeCache,
)
from repro.kvcache.storage import KVStorage
from repro.model.config import ModelConfig
from repro.model.layers import LayerNorm, Linear, OptMlp, RMSNorm, SwiGluMlp
from repro.model.rope import apply_rope, rope_angles, rotate


@dataclass
class ForwardRequest:
    """One request's share of a batched forward pass.

    Attributes:
        input_ids: ``[n_new]`` raw token ids to process this step: for a
            prefill request the (possibly recompute-prefixed) prompt, for a
            generation request the single last-output token.
        context_slots: physical slots of the **entire** context in logical
            order, length ``total_context``.  Includes the slots the new
            tokens will be written to.
        positions: ``[n_new]`` logical positions of the input tokens within
            the context.  Defaults to the trailing positions.
        dropped: number of leading input tokens that are a recomputed
            dropped prefix (positions ``[shared_prefix, shared_prefix +
            dropped)``); the rest are the new prompt at the trailing
            positions.
        shared_prefix: tokens of always-resident shared context (e.g. a
            common system prompt) at the very front of ``context_slots``;
            they are never recomputed and never written by this request.
        slot_view: optional :class:`~repro.kernels.packed_cache.DecodeSlotSource`
            describing the context *by reference* (block table + shared
            prefix slots) instead of as a materialised array.  When given,
            ``context_slots`` may be ``None``: the packed decode path
            reads the table incrementally and the full array is only
            materialised when the batch takes another kernel.  Requires
            ``dropped == 0`` (a recompute split has no single table).
    """

    input_ids: np.ndarray
    context_slots: Optional[Sequence[int]]
    positions: Optional[np.ndarray] = None
    dropped: int = 0
    shared_prefix: int = 0
    slot_view: Optional[DecodeSlotSource] = None

    def __post_init__(self) -> None:
        self.input_ids = np.asarray(self.input_ids, dtype=np.int64)
        n_new = self.input_ids.shape[0]
        if n_new == 0:
            raise ValueError("a forward request needs at least one input token")
        if self.context_slots is None:
            if self.slot_view is None:
                raise ValueError(
                    "context_slots may only be omitted with a slot_view"
                )
            if self.dropped != 0:
                raise ValueError(
                    "slot_view-backed requests cannot carry a recompute split"
                )
            total = self.slot_view.total_len
        else:
            total = len(self.context_slots)
        self.total_context = total
        if self.dropped < 0 or self.dropped > n_new:
            raise ValueError(f"invalid dropped count {self.dropped}")
        if self.shared_prefix < 0 or self.shared_prefix + n_new > total:
            raise ValueError(
                f"{n_new} input tokens plus shared prefix "
                f"{self.shared_prefix} exceed context of {total} slots"
            )
        if self.positions is None:
            prompt = n_new - self.dropped
            lead = self.shared_prefix + np.arange(self.dropped)
            tail = np.arange(total - prompt, total)
            self.positions = np.concatenate([lead, tail])
        self.positions = np.asarray(self.positions, dtype=np.int64)
        if self.positions.shape[0] != n_new:
            raise ValueError("positions must match input token count")

    @property
    def num_new_tokens(self) -> int:
        return int(self.input_ids.shape[0])

    def full_context_slots(self) -> np.ndarray:
        """The entire context's physical slots in logical order,
        materialising from the slot view when ``context_slots`` is
        omitted."""
        if self.context_slots is not None:
            return np.asarray(self.context_slots, dtype=np.int64)
        view = self.slot_view
        table_slots = view.table.slots_array(0, view.table.length)
        if len(view.prefix) == 0:
            return table_slots
        return np.concatenate(
            [np.asarray(view.prefix, dtype=np.int64), table_slots]
        )

    def write_slots(self) -> np.ndarray:
        """Physical slots the new tokens' KV rows are written to."""
        if self.context_slots is not None:
            return np.asarray(self.context_slots, dtype=np.int64)[self.positions]
        view = self.slot_view
        prefix_len = len(view.prefix)
        # New tokens always live past the shared prefix, so their slots
        # come straight from the block table — no full materialisation.
        return np.fromiter(
            (view.table.slot(int(p) - prefix_len) for p in self.positions),
            dtype=np.int64,
            count=self.num_new_tokens,
        )


@dataclass
class _BatchPlan:
    """Per-forward precomputation for a whole batch (layer-invariant).

    Everything here depends only on the batch's *shape* — token
    positions, write targets, RoPE angles, sub-request spans — so it is
    computed once per forward pass instead of once per layer.  The arrays
    cover the batch's rows in order, so RoPE and the KV store each run as
    ONE call per layer rather than one per request.
    """

    positions: np.ndarray  # [sum_n] logical position of every input row
    write_slots: np.ndarray  # [sum_n] physical slot of every input row
    #: True iff every request is a pure generation step (one trailing
    #: query token, no recompute split): the packed decode cache's gate.
    all_decode: bool
    #: RoPE ``(cos, sin)`` of every row (Llama only), gathered once and
    #: shared by every layer's q and k.
    angles: Optional[Tuple[np.ndarray, np.ndarray]] = None
    #: ``(lo, hi, slots, query_offset)`` per Figure 8(d) sub-request:
    #: batch rows ``[lo, hi)`` attend over ``slots``.  Filled only when
    #: the batch is not served from the packed decode cache, which reads
    #: the block tables incrementally instead of materialising contexts.
    spans: List[tuple] = field(default_factory=list)
    #: The same spans for a forward that keeps only each request's last
    #: row: request ``i``'s one-row query is row ``[i, i + 1)``, at the
    #: row's own position, over the slots of the span holding it.
    last_rows: List[tuple] = field(default_factory=list)

    @staticmethod
    def build(
        batch: Sequence[ForwardRequest], positions: np.ndarray, config: ModelConfig
    ) -> "_BatchPlan":
        plan = _BatchPlan(
            positions=positions,
            write_slots=np.concatenate([r.write_slots() for r in batch]),
            all_decode=all(
                r.num_new_tokens == 1 and r.dropped == 0 for r in batch
            ),
        )
        if config.arch == "llama":
            plan.angles = rope_angles(positions, config.head_dim)
        return plan

    def build_spans(
        self, batch: Sequence[ForwardRequest], bounds: np.ndarray
    ) -> None:
        for i, (request, lo) in enumerate(zip(batch, bounds)):
            # One int64 conversion per request; span slot lists are
            # zero-copy views into it.
            slots = request.full_context_slots()
            for q_lo, q_hi, context_end, offset in disjoint_query_spans(
                request.num_new_tokens,
                len(slots),
                request.dropped,
                shared_prefix=request.shared_prefix,
            ):
                self.spans.append(
                    (lo + q_lo, lo + q_hi, slots[:context_end], offset)
                )
            # The last span holds the last row.  With all input a dropped
            # prefix that row sits at shared_prefix + dropped - 1, not at
            # the end of the context.
            self.last_rows.append(
                (i, i + 1, slots[:context_end], offset + q_hi - q_lo - 1)
            )


@dataclass
class _LayerWeights:
    attn_norm: object
    q_proj: Linear
    k_proj: Linear
    v_proj: Linear
    o_proj: Linear
    mlp_norm: object
    mlp: object


class PagedTransformer:
    """Decoder-only transformer executing over a paged KV storage.

    Args:
        config: model hyper-parameters (use the tiny presets for tests).
        storage: slot-indexed K/V arrays shared with the cache manager.
        seed: weight initialisation seed (deterministic).
        use_fast_paths: dispatch to the batched kernel layer
            (:mod:`repro.kernels.ragged`, :mod:`repro.kernels.packed_cache`)
            with the sub-request split, positions, write slots and RoPE
            angles hoisted into one :class:`_BatchPlan` per forward, RoPE
            and the KV store run once per layer for the whole batch, and
            the last layer's discarded rows pruned.  ``False`` runs the
            original per-layer, per-request tiled path over every row —
            kept as the end-to-end baseline the benchmark harness measures
            against.  Fast paths also keep a :class:`PackedDecodeCache`
            (``decode_cache``) so all-decode batches of slot_view-backed
            requests reuse their packed slot table and gathered-KV
            staging buffers across iterations instead of rebuilding both
            every step; numerically transparent.
        backend: name of the :class:`~repro.backends.Backend` every
            attention kernel is looked up on (``self.backend``) at call
            time.
    """

    def __init__(
        self,
        config: ModelConfig,
        storage: KVStorage,
        seed: int = 0,
        use_fast_paths: bool = True,
        backend: str = "paged",
    ) -> None:
        if storage.config is not config and (
            storage.config.num_layers != config.num_layers
            or storage.config.num_kv_heads != config.num_kv_heads
            or storage.config.head_dim != config.head_dim
        ):
            raise ValueError("storage shape does not match model config")
        self.config = config
        self.storage = storage
        self.use_fast_paths = use_fast_paths
        # Every attention kernel is reached through the backend; it also
        # owns the decode packing cache's staging layout.
        self.backend: Backend = get_backend(backend)
        self.decode_cache: Optional[PackedDecodeCache] = (
            self.backend.create_decode_cache() if use_fast_paths else None
        )
        rng = np.random.default_rng(seed)
        h = config.hidden_size
        kv = config.kv_dim
        self.embedding = rng.standard_normal((config.vocab_size, h)) * 0.02
        if config.arch == "opt":
            self.pos_embedding = rng.standard_normal((config.max_position, h)) * 0.02
        else:
            self.pos_embedding = None
        self.layers: List[_LayerWeights] = []
        with_bias = config.arch == "opt"
        for _ in range(config.num_layers):
            if config.arch == "opt":
                attn_norm: object = LayerNorm.identity(h)
                mlp_norm: object = LayerNorm.identity(h)
                mlp: object = OptMlp.init(rng, h, config.intermediate_size)
            else:
                attn_norm = RMSNorm.identity(h)
                mlp_norm = RMSNorm.identity(h)
                mlp = SwiGluMlp.init(rng, h, config.intermediate_size)
            self.layers.append(
                _LayerWeights(
                    attn_norm=attn_norm,
                    q_proj=Linear.init(rng, h, h, with_bias=with_bias),
                    k_proj=Linear.init(rng, h, kv, with_bias=with_bias),
                    v_proj=Linear.init(rng, h, kv, with_bias=with_bias),
                    o_proj=Linear.init(rng, h, h, with_bias=with_bias),
                    mlp_norm=mlp_norm,
                    mlp=mlp,
                )
            )
        self.final_norm = (
            LayerNorm.identity(h) if config.arch == "opt" else RMSNorm.identity(h)
        )
        self.lm_head = self.embedding.T  # weight tying

    # ------------------------------------------------------------------

    def forward(self, batch: Sequence[ForwardRequest]) -> List[np.ndarray]:
        """Run one batched iteration.

        Writes every input token's K/V into the paged storage (Figure 8
        step c) and returns, per request, the ``[vocab]`` next-token
        logits computed from its last input row.
        """
        return self._forward(batch, all_rows=False)

    def forward_all_rows(self, batch: Sequence[ForwardRequest]) -> List[np.ndarray]:
        """:meth:`forward` keeping every row: per request, the
        ``[n_new, vocab]`` logits of all its input tokens (teacher
        forcing).  Stores the same K/V bits as :meth:`forward`."""
        return self._forward(batch, all_rows=True)

    def greedy_token(self, logits: np.ndarray) -> int:
        """Deterministic argmax sampling."""
        return int(np.argmax(logits))

    # ------------------------------------------------------------------

    def _forward(
        self, batch: Sequence[ForwardRequest], all_rows: bool
    ) -> List[np.ndarray]:
        if not batch:
            return []
        # Unified batch formation (§4.4.1): all requests' input tokens
        # form one token-major activation tensor, embedded in one gather.
        positions = np.concatenate([r.positions for r in batch])
        x = self.embedding[np.concatenate([r.input_ids for r in batch])]
        if self.pos_embedding is not None:
            x = x + self.pos_embedding[positions]  # [sum_n, h]
        bounds = np.cumsum([0] + [r.num_new_tokens for r in batch])
        last_rows = bounds[1:] - 1
        # Layer-invariant structure is derived ONCE per forward pass, not
        # once per layer; the incremental pack repacks only the rows
        # whose block table changed since the previous iteration.
        plan: Optional[_BatchPlan] = None
        packed: Optional[PackedBatch] = None
        keep: Optional[np.ndarray] = None
        if self.use_fast_paths:
            plan = _BatchPlan.build(batch, positions, self.config)
            if (
                plan.all_decode
                and self.decode_cache is not None
                and all(r.slot_view is not None for r in batch)
            ):
                packed = self.decode_cache.pack([r.slot_view for r in batch])
            else:
                plan.build_spans(batch, bounds)
            if not all_rows and x.shape[0] > len(batch):
                keep = last_rows

        final = len(self.layers) - 1
        for layer_idx, w in enumerate(self.layers):
            # Only the last layer may prune: every earlier layer's rows
            # feed the K/V the cache keeps.
            rows = keep if layer_idx == final else None
            out = self._attention_block(
                layer_idx, w, x, batch, bounds, plan, packed, rows
            )
            x = (x if rows is None else x[rows]) + out
            x = x + w.mlp(w.mlp_norm(x))

        x = self.final_norm(x)
        logits = x @ self.lm_head
        if all_rows:
            return [logits[bounds[i] : bounds[i + 1]] for i in range(len(batch))]
        if logits.shape[0] > len(batch):
            # The oracle computed every row; it keeps the last of each.
            logits = logits[last_rows]
        return list(logits)

    def _attention_block(
        self,
        layer_idx: int,
        w: _LayerWeights,
        x: np.ndarray,
        batch: Sequence[ForwardRequest],
        bounds: np.ndarray,
        plan: Optional[_BatchPlan] = None,
        packed: Optional[PackedBatch] = None,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Attention output (o_proj applied) of the batch's rows — or,
        given ``rows``, of those rows only, each a request's last row.
        K/V are projected and stored for every row either way."""
        cfg = self.config
        normed = w.attn_norm(x)
        q_in = normed if rows is None else normed[rows]
        q = w.q_proj(q_in).reshape(-1, cfg.num_heads, cfg.head_dim)
        k = w.k_proj(normed).reshape(-1, cfg.num_kv_heads, cfg.head_dim)
        v = w.v_proj(normed).reshape(-1, cfg.num_kv_heads, cfg.head_dim)
        k_layer = self.storage.k[layer_idx]
        v_layer = self.storage.v[layer_idx]

        if plan is None:
            # Reference path: per request and per layer — RoPE, the KV
            # store and the Figure 8(d) split are all re-derived here,
            # exactly as the seed implementation did.
            kernel_requests: List[AttentionRequest] = []
            for i, request in enumerate(batch):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                q_i, k_i, v_i = q[lo:hi], k[lo:hi], v[lo:hi]
                if cfg.arch == "llama":
                    q_i = apply_rope(q_i, request.positions)
                    k_i = apply_rope(k_i, request.positions)
                self.storage.write(layer_idx, request.write_slots(), k_i, v_i)
                kernel_requests += split_disjoint_query(
                    q_i,
                    list(request.full_context_slots()),
                    request.dropped,
                    shared_prefix=request.shared_prefix,
                )
            attend = self.backend.multi_token_attention
        else:
            # RoPE and the KV store (Figure 8 step c) act on each row
            # alone, so ONE call over the whole batch leaves the same bits
            # as one call per request.
            if plan.angles is not None:
                cos, sin = plan.angles
                k = rotate(k, cos, sin)
                if rows is not None:
                    cos, sin = cos[rows], sin[rows]
                q = rotate(q, cos, sin)
            self.storage.write(layer_idx, plan.write_slots, k, v)
            if packed is not None:
                # All-decode packed path: the attention reads the cache
                # through the incremental staging buffers.
                out = self.backend.decode_attention(
                    q, packed, layer_idx, k_layer, v_layer
                )
                return w.o_proj(out.reshape(q.shape[0], -1))
            kernel_requests = [
                AttentionRequest(query=q[lo:hi], slots=slots, query_offset=offset)
                for lo, hi, slots, offset in (
                    plan.spans if rows is None else plan.last_rows
                )
            ]
            # Prefill, mixed, recompute splits and decode batches with
            # explicit context slots: one ragged kernel for all of them.
            attend = self.backend.ragged_attention

        # Sub-requests cover the kept rows in order.
        outputs = np.empty_like(q)
        start = 0
        for out in attend(kernel_requests, k_layer, v_layer):
            outputs[start : start + out.shape[0]] = out
            start += out.shape[0]
        return w.o_proj(outputs.reshape(q.shape[0], -1))
