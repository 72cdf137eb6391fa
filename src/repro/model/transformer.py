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

A forward takes one of two batches.  A batch of :class:`ForwardRequest`
names each context by its explicit slots; prefills, recompute splits and
mixed batches use it, and the per-request oracle runs every batch as one.
A batch of :class:`DecodeRequest` is the serving loop's generation step:
each names its context by block table, the packed decode cache
(:mod:`repro.kernels.packed_cache`) packs the batch, and the step's
positions, write slots, embedding gather and RoPE angles are whole-batch
reads of the packed table, with no per-request object built per step.

A forward has two jobs: write every input row's K/V into the paged cache
and produce each request's next token.  :meth:`PagedTransformer.forward`
pays only for those.  Layers ``0..L-2`` run every row, because their K/V
are the cache; the last layer projects, rotates and writes K/V for every
row but runs its query, attention, output projection and MLP — and the
final norm and LM head — on each request's last row only.
:meth:`~PagedTransformer.forward_all_rows` is the same body keeping every
row, for teacher-forcing checks.

A layer pays per numpy call as much as per FLOP, so it makes few: one
matmul projects q, k and v, one RoPE call rotates q and k, and the
SwiGLU MLP computes gate and up with one matmul.  The fused matrices are
built once, at construction, from parameters drawn in the unfused
stream order; they are the only copies, and the per-projection weights
that remain are views of them.

The model computes in one dtype: its storage's (``storage.k.dtype``).
Weights, norm gains and RoPE tables are rounded to it once, at
construction, so every activation, query and attention output has the
dtype of the K/V it is written beside — float32 over the default
:class:`~repro.kvcache.storage.KVStorage`.  The same seed over a float64
storage gives the float64 model, the reference a float32 run's drift is
measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backends import Backend, get_backend
from repro.kernels import (
    AttentionRequest,
    disjoint_query_spans,
    split_disjoint_query,
)
from repro.kernels.packed_cache import DecodeSlotSource, PackedDecodeCache
from repro.kvcache.storage import KVStorage
from repro.model.config import ModelConfig
from repro.model.layers import (
    LayerNorm,
    Linear,
    OptMlp,
    RMSNorm,
    SwiGluMlp,
    scaled_normal,
)
from repro.model.rope import apply_rope, rope_angles, rotate


@dataclass
class ForwardRequest:
    """One request's share of a batched forward pass, its context given as
    explicit slots.

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

    A serving loop's generation steps use :class:`DecodeRequest` instead,
    which names its context by reference.
    """

    input_ids: np.ndarray
    context_slots: Sequence[int]
    positions: Optional[np.ndarray] = None
    dropped: int = 0
    shared_prefix: int = 0

    def __post_init__(self) -> None:
        self.input_ids = np.asarray(self.input_ids, dtype=np.int64)
        n_new = self.input_ids.shape[0]
        if n_new == 0:
            raise ValueError("a forward request needs at least one input token")
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
        """The entire context's physical slots in logical order."""
        return np.asarray(self.context_slots, dtype=np.int64)

    def write_slots(self) -> np.ndarray:
        """Physical slots the new tokens' KV rows are written to."""
        return self.full_context_slots()[self.positions]


class DecodeRequest:
    """One conversation's generation step, built once per turn and reused
    by every step of it.

    It names the context by reference (``source``: the block table and
    the shared prefix's slots) and feeds one token, which the caller sets
    before each step.  A batch of decode requests takes the packed decode
    path of :meth:`PagedTransformer.forward`: the batch's positions, write
    slots, embeddings and RoPE angles all come from the packed slot table.
    """

    __slots__ = ("source", "token")

    #: A generation step feeds exactly one token.
    num_new_tokens = 1

    def __init__(self, source: DecodeSlotSource, token: int = 0) -> None:
        self.source = source
        self.token = token


@dataclass
class _BatchPlan:
    """Per-forward precomputation for a batch of :class:`ForwardRequest`
    (layer-invariant).

    Everything here depends only on the batch's *shape* — token
    positions, write targets, RoPE angles, sub-request spans — so it is
    computed once per forward pass instead of once per layer.  The arrays
    cover the batch's rows in order, so RoPE and the KV store each run as
    ONE call per layer rather than one per request.
    """

    write_slots: np.ndarray  # [sum_n] physical slot of every input row
    #: RoPE ``(cos, sin)`` of every row (Llama only), gathered once and
    #: shared by every layer's q and k.
    angles: Optional[Tuple[np.ndarray, np.ndarray]]
    #: ``(lo, hi, slots, query_offset)`` per Figure 8(d) sub-request:
    #: batch rows ``[lo, hi)`` attend over ``slots``.
    spans: List[tuple]
    #: The same spans for a forward that keeps only each request's last
    #: row: request ``i``'s one-row query is row ``[i, i + 1)``, at the
    #: row's own position, over the slots of the span holding it.
    last_rows: List[tuple]

    @staticmethod
    def build(
        batch: Sequence[ForwardRequest],
        positions: np.ndarray,
        bounds: np.ndarray,
        config: ModelConfig,
        dtype: np.dtype,
    ) -> "_BatchPlan":
        write_slots: List[np.ndarray] = []
        spans: List[tuple] = []
        last_rows: List[tuple] = []
        for i, (request, lo) in enumerate(zip(batch, bounds)):
            # One int64 conversion per request; its write slots and span
            # slot lists are taken from it.
            slots = request.full_context_slots()
            write_slots.append(slots[request.positions])
            for q_lo, q_hi, context_end, offset in disjoint_query_spans(
                request.num_new_tokens,
                len(slots),
                request.dropped,
                shared_prefix=request.shared_prefix,
            ):
                spans.append((lo + q_lo, lo + q_hi, slots[:context_end], offset))
            # The last span holds the last row.  With all input a dropped
            # prefix that row sits at shared_prefix + dropped - 1, not at
            # the end of the context.
            last_rows.append(
                (i, i + 1, slots[:context_end], offset + q_hi - q_lo - 1)
            )
        angles = None
        if config.arch == "llama":
            angles = rope_angles(positions, config.head_dim, dtype=dtype)
        return _BatchPlan(np.concatenate(write_slots), angles, spans, last_rows)


@dataclass
class _LayerWeights:
    attn_norm: object
    #: One projection for q, k and v: ``[hidden, hidden + 2 kv_dim]``,
    #: columns q | k | v — the only copy of the three weights.
    qkv_proj: Linear
    #: Column views of ``qkv_proj``, for the pruned last layer, whose
    #: queries cover fewer rows than its keys and values.
    q_proj: Linear
    kv_proj: Linear
    o_proj: Linear
    mlp_norm: object
    mlp: object


class PagedTransformer:
    """Decoder-only transformer executing over a paged KV storage, in the
    storage's dtype (``self.dtype``): every parameter is drawn from the
    seed's float64 stream and rounded once to it.

    Args:
        config: model hyper-parameters (use the tiny presets for tests).
        storage: slot-indexed K/V arrays shared with the cache manager;
            their dtype is the model's compute dtype.
        seed: weight initialisation seed (deterministic; the same seed
            gives the same weights, rounded, at every dtype).
        use_fast_paths: dispatch :class:`ForwardRequest` batches to the
            ragged kernel (:mod:`repro.kernels.ragged`) with the
            sub-request split, write slots and RoPE angles hoisted into
            one :class:`_BatchPlan` per forward, RoPE and the KV store run
            once per layer for the whole batch, and the last layer's
            discarded rows pruned.  ``False`` runs the original per-layer,
            per-request tiled path over every row — kept as the
            end-to-end baseline the benchmark harness measures against.
            Fast paths also keep a :class:`PackedDecodeCache`
            (``decode_cache``), which batches of :class:`DecodeRequest`
            need: it keeps their packed slot table and gathered-KV
            staging buffers across iterations instead of rebuilding both
            every step, and the step's positions, write slots and RoPE
            angles are read from it in whole-batch calls; numerically
            transparent.
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
        self.dtype = dtype = storage.k.dtype
        rng = np.random.default_rng(seed)
        h = config.hidden_size
        kv = config.kv_dim
        self.embedding = scaled_normal(rng, (config.vocab_size, h), 0.02, dtype)
        if config.arch == "opt":
            self.pos_embedding: Optional[np.ndarray] = scaled_normal(
                rng, (config.max_position, h), 0.02, dtype
            )
        else:
            self.pos_embedding = None
        norm = LayerNorm if config.arch == "opt" else RMSNorm
        mlp_type = OptMlp if config.arch == "opt" else SwiGluMlp
        with_bias = config.arch == "opt"

        def linear(out_dim: int) -> Linear:
            return Linear.init(rng, h, out_dim, with_bias=with_bias, dtype=dtype)

        self.layers: List[_LayerWeights] = []
        for _ in range(config.num_layers):
            # The seed's stream order: MLP, q, k, v, o.
            mlp = mlp_type.init(rng, h, config.intermediate_size, dtype)
            qkv = Linear.fuse(linear(h), linear(kv), linear(kv))
            self.layers.append(
                _LayerWeights(
                    attn_norm=norm.identity(h, dtype),
                    qkv_proj=qkv,
                    q_proj=qkv.columns(0, h),
                    kv_proj=qkv.columns(h, h + 2 * kv),
                    o_proj=linear(h),
                    mlp_norm=norm.identity(h, dtype),
                    mlp=mlp,
                )
            )
        self.final_norm = norm.identity(h, dtype)
        self.lm_head = self.embedding.T  # weight tying

    # ------------------------------------------------------------------

    def forward(self, batch: Sequence) -> np.ndarray:
        """Run one batched iteration.

        Writes every input token's K/V into the paged storage (Figure 8
        step c) and returns the ``[len(batch), vocab]`` next-token logits,
        row ``i`` computed from request ``i``'s last input row.  A batch
        of :class:`DecodeRequest` takes the packed decode path; any other
        is a batch of :class:`ForwardRequest`.
        """
        if batch and type(batch[0]) is DecodeRequest:
            return self._decode(batch)
        return self._forward(batch, all_rows=False)

    def forward_all_rows(self, batch: Sequence[ForwardRequest]) -> List[np.ndarray]:
        """:meth:`forward` keeping every row: per request, the
        ``[n_new, vocab]`` logits of all its input tokens (teacher
        forcing).  Stores the same K/V bits as :meth:`forward`."""
        return self._forward(batch, all_rows=True)

    # ------------------------------------------------------------------

    def _layers(
        self, x: np.ndarray, attention, keep: Optional[np.ndarray]
    ) -> np.ndarray:
        """Every layer over ``x``, then the final norm and LM head.
        ``attention(layer_idx, w, x, rows)`` returns the attention block's
        output for ``x``'s rows, or for ``rows`` only; only the last layer
        is given ``keep`` as its rows, because every earlier layer's rows
        feed the K/V the cache keeps."""
        final = len(self.layers) - 1
        for layer_idx, w in enumerate(self.layers):
            rows = keep if layer_idx == final else None
            out = attention(layer_idx, w, x, rows)
            x = (x if rows is None else x[rows]) + out
            x = x + w.mlp(w.mlp_norm(x))
        return self.final_norm(x) @ self.lm_head

    def _decode(self, batch: Sequence[DecodeRequest]) -> np.ndarray:
        """One generation step of every request, read from the packed batch.

        The packed slot table gives the step's positions (``lengths - 1``)
        and write slots (``table[i, lengths[i] - 1]``); the embedding
        gather and the RoPE angles take those in one call each, and every
        layer attends through the packed cache's staging buffers.
        """
        if self.decode_cache is None:
            raise ValueError("decode requests need the packed decode cache")
        n = len(batch)
        tokens = np.array([r.token for r in batch], dtype=np.int64)
        if tokens.shape != (n,):
            raise ValueError("a decode request feeds exactly one input token")
        packed = self.decode_cache.pack([r.source for r in batch])
        lengths = packed.lengths
        if not (lengths > packed.prefix_lengths).all():
            raise ValueError(
                "a decode request's shared prefix must be shorter than its context"
            )
        positions = lengths - 1
        write_slots = packed.table[np.arange(n), positions]
        x = self.embedding[tokens]
        angles = None
        if self.pos_embedding is not None:
            x = x + self.pos_embedding[positions]
        else:
            angles = rope_angles(positions, self.config.head_dim, dtype=self.dtype)
        storage, backend = self.storage, self.backend

        def attention(layer_idx, w, x, rows):
            q, k, v = self._qkv(w, x, None, angles)
            storage.write(layer_idx, write_slots, k, v)
            out = backend.decode_attention(
                q, packed, layer_idx, storage.k[layer_idx], storage.v[layer_idx]
            )
            return w.o_proj(out.reshape(n, -1))

        return self._layers(x, attention, None)

    def _forward(
        self, batch: Sequence[ForwardRequest], all_rows: bool
    ) -> np.ndarray | List[np.ndarray]:
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
        # once per layer.
        plan: Optional[_BatchPlan] = None
        keep: Optional[np.ndarray] = None
        if self.use_fast_paths:
            plan = _BatchPlan.build(batch, positions, bounds, self.config, self.dtype)
            if not all_rows and x.shape[0] > len(batch):
                keep = last_rows

        def attention(layer_idx, w, x, rows):
            return self._attention_block(layer_idx, w, x, batch, bounds, plan, rows)

        logits = self._layers(x, attention, keep)
        if all_rows:
            return [logits[bounds[i] : bounds[i + 1]] for i in range(len(batch))]
        if logits.shape[0] > len(batch):
            # The oracle computed every row; it keeps the last of each.
            logits = logits[last_rows]
        return logits

    def _qkv(
        self,
        w: _LayerWeights,
        x: np.ndarray,
        rows: Optional[np.ndarray],
        angles: Optional[Tuple[np.ndarray, np.ndarray]],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``[rows, heads, head_dim]`` q, k and v of ``x``'s rows — q of
        ``rows`` only, when given — rotated by ``angles`` when given.
        RoPE acts on each row alone, so ONE call over the whole batch
        leaves the same bits as one call per request."""
        cfg = self.config
        heads, kv_heads = cfg.num_heads, cfg.num_kv_heads
        normed = w.attn_norm(x)
        if rows is None:
            # One projection; q, k and v are head views of its columns.
            qkv = w.qkv_proj(normed).reshape(-1, heads + 2 * kv_heads, cfg.head_dim)
            v = qkv[:, heads + kv_heads :]
            if angles is None:
                return qkv[:, :heads], qkv[:, heads : heads + kv_heads], v
            # q and k share their rows' angles: one rotation.
            qk = rotate(qkv[:, : heads + kv_heads], *angles)
            return qk[:, :heads], qk[:, heads:], v
        q = w.q_proj(normed[rows]).reshape(-1, heads, cfg.head_dim)
        kv = w.kv_proj(normed).reshape(-1, 2 * kv_heads, cfg.head_dim)
        k, v = kv[:, :kv_heads], kv[:, kv_heads:]
        if angles is not None:
            cos, sin = angles
            k = rotate(k, cos, sin)
            q = rotate(q, cos[rows], sin[rows])
        return q, k, v

    def _attention_block(
        self,
        layer_idx: int,
        w: _LayerWeights,
        x: np.ndarray,
        batch: Sequence[ForwardRequest],
        bounds: np.ndarray,
        plan: Optional[_BatchPlan],
        rows: Optional[np.ndarray],
    ) -> np.ndarray:
        """Attention output (o_proj applied) of the batch's rows — or,
        given ``rows``, of those rows only, each a request's last row.
        K/V are projected and stored for every row either way."""
        q, k, v = self._qkv(w, x, rows, None if plan is None else plan.angles)
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
                if self.config.arch == "llama":
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
            self.storage.write(layer_idx, plan.write_slots, k, v)
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
