"""Incremental decode packing cache (the metadata-reuse layer).

:func:`~repro.kernels.batched.batched_single_token_attention` is already
one fused computation per decode step, but it rebuilds its padded
``[batch, max_context]`` slot table and re-gathers the **entire** paged
context from the KV cache on every iteration — even though each request's
block table grows by exactly one slot per step.  PersistentKV-style
profiling (PAPERS.md) says exactly this: long-context decode is
bottlenecked by KV movement and metadata churn, not matmuls.

:class:`PackedDecodeCache` keeps the packed slot table, per-row segment
lengths and per-layer gathered-KV staging buffers alive across the
decode steps of a turn.  The serving loop builds one
:class:`DecodeSlotSource` per turn, after the prefill, and passes that
same object to every decode step of the turn.  A row's state is the
source object it was packed from, that source's ``structure_version``
and the packed length, and each pack does one of four things per row:

- **extend** — same source, same structure version, one slot longer:
  write the new slot into the row (one ``BlockTable.slot`` lookup) and
  gather only that column.  This is the decode step.
- **reuse** — same source, same structure version, same length.
- **repair** — the same source otherwise (its structure version moved,
  or its length changed by more than one slot): rewrite the row and
  reset its staging columns.
- **rebuild** — a different source occupies the row (a new turn, or a
  batch whose order or membership changed): rewrite the row the same
  way.  Rows are not matched across turns: a conversation's next turn
  arrives with a new source and rebuilds its row.

A row holds a reference to its source, so no new object can take that
source's identity while the row names it; a recycled conversation id
arrives with a new source and cannot alias a dead row.  ``chat_batch``
pins every member for the whole turn, so a live source's table only
grows, by the one slot each decode step appends; the structure-version
check guards the rows should that contract ever break.

Staging is in the KV cache's own dtype and shapes K and V for the
product each feeds, as PagedAttention keeps K and V blocks in different
layouts.  K is key-transposed, ``[rows, kv_heads, head_dim, ctx]``:
every (row, head) ``[head_dim, ctx]`` tile has unit stride along the
context, so the score product ``q @ K^T`` is a plain batched GEMM with
no transposed operand.  A model without grouped query heads (a group
of one, e.g. OPT) is the exception: its score product is a
matrix-vector product whose rounding follows K's layout, so its K stays
head-major in memory (and is still indexed key-transposed).  V is
head-major, ``[rows, kv_heads, ctx, head_dim]``: every ``[ctx,
head_dim]`` tile the weighted sum multiplies has unit stride along
``head_dim``.  Capacities (rows and packed
context width) start at :data:`INITIAL_ROWS` x :data:`INITIAL_CONTEXT`,
grow by :data:`GROWTH` and never shrink, so the steady state allocates
nothing; a regrow allocates fresh zeroed staging and resets every row's
gathered watermark instead of copying, so it touches no page of the old
capacity and the next gather refills only live columns.  A layer whose
staging would exceed :data:`STAGING_BUDGET_BYTES` turns staging off for
good, and every later gather is a fresh one.  Correctness leans on one
:class:`~repro.kvcache.pages.BlockTable` invariant: appends never remap
existing positions (only ``vacate_front`` / ``restore_front`` /
``release`` do, and those bump ``structure_version``), and the serving
layer only writes K/V for slots no live row has gathered: a decode
step's newly appended slot, or, in the next turn's prefill (before that
turn's new source is packed), the previous turn's unwritten last slot —
so staged KV columns stay valid exactly as long as the structure
version holds still.

The cache is numerically transparent: for grouped-query models the
outputs of :func:`packed_decode_attention` are bit-identical to
:func:`~repro.kernels.batched.batched_single_token_attention` (with a
group of one they agree to float32 rounding), so they match the
per-request oracle as closely as it does; pinned by
``tests/kernels/test_packed_cache.py``, also under randomized mutation
interleavings.  Each pack builds its additive segment mask
(:func:`~repro.kernels.batched.segment_bias`) once, on the first layer
that asks, and every layer adds that one array.  Its stale-row index —
which rows a layer's staging lacks, at which columns and slots — is
built once per distinct gathered watermark: every layer of a steady
decode step holds the same one, so one index serves them all, while a
layer whose watermark differs (a layer key first gathered mid-run, one
that skipped a pack) gets its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.batched import (
    _grouped_heads,
    segment_bias,
    segment_masked_decode,
)
from repro.kernels.reference import attention_scale

_EMPTY_PREFIX = np.empty(0, dtype=np.int64)

#: Starting row and packed-context capacities, and the factor both grow by.
INITIAL_ROWS = 8
INITIAL_CONTEXT = 64
GROWTH = 2.0
#: Bytes one layer's K staging may take before staging is turned off.
STAGING_BUDGET_BYTES = 256 * 2**20


@dataclass(frozen=True, eq=False)
class DecodeSlotSource:
    """One turn's slot layout, described by reference.

    A packed row follows the source object it was packed from, by
    identity: pass the same object to every decode step of a turn, and
    build a new one for the next turn.

    Args:
        table: the request's :class:`~repro.kvcache.pages.BlockTable`
            (anything with ``length`` / ``structure_version`` / ``slot``
            / ``slots_array`` works).
        prefix: flat slot indices of a shared prefix (e.g. the pinned
            system prompt) that precedes the table's positions.
    """

    table: Any
    prefix: np.ndarray = field(default_factory=lambda: _EMPTY_PREFIX)

    @property
    def total_len(self) -> int:
        return len(self.prefix) + self.table.length


@dataclass
class _RowState:
    source: DecodeSlotSource
    structure_version: int
    packed_len: int


@dataclass
class _StaleIndex:
    """The columns a layer's staging lacks for one pack."""

    rows: np.ndarray  # rows whose watermark is below their length
    cols: np.ndarray  # each such row's watermark
    #: With every stale row one column behind, that column's slot per
    #: row; otherwise ``None``, and each row gathers its own range.
    slots: Optional[np.ndarray]


#: ``(kv_heads, head_dim, dtype, key_transposed)`` of one layer's staging.
_Layout = Tuple[int, int, np.dtype, bool]


@dataclass
class _LayerStaging:
    k: np.ndarray          # indexed [rows_cap, kv_heads, head_dim, ctx_cap]
    v: np.ndarray          # [rows_cap, kv_heads, ctx_cap, head_dim]
    gathered: np.ndarray   # [rows_cap] columns of each row already staged
    layout: _Layout

    @staticmethod
    def allocate(rows: int, ctx: int, layout: _Layout) -> "_LayerStaging":
        kv_heads, head_dim, dtype, key_transposed = layout
        if key_transposed:
            k = np.zeros((rows, kv_heads, head_dim, ctx), dtype=dtype)
        else:
            # Head-major memory, indexed like the key-transposed layout.
            k = np.zeros((rows, kv_heads, ctx, head_dim), dtype=dtype)
            k = k.transpose(0, 1, 3, 2)
        return _LayerStaging(
            k=k,
            v=np.zeros((rows, kv_heads, ctx, head_dim), dtype=dtype),
            gathered=np.zeros(rows, dtype=np.int64),
            layout=layout,
        )


class PackedBatch:
    """A view of the cache's packed state for one decode iteration.

    Only the batch returned by the **most recent** :meth:`PackedDecodeCache.pack`
    call is valid; a later pack may rewrite rows in place.
    """

    def __init__(self, cache: "PackedDecodeCache", n: int, max_len: int) -> None:
        self._cache = cache
        self.n = n
        self.max_len = max_len
        self._bias: Optional[np.ndarray] = None
        self._bias_built = False

    @property
    def lengths(self) -> np.ndarray:
        """``[n]`` valid context length per row."""
        return self._cache._lengths[: self.n]

    @property
    def prefix_lengths(self) -> np.ndarray:
        """``[n]`` shared-prefix length per row."""
        return self._cache._prefix_lengths[: self.n]

    @property
    def table(self) -> np.ndarray:
        """``[n, max_len]`` packed slot table (zero-padded past lengths)."""
        return self._cache._table[: self.n, : self.max_len]

    def bias(self, dtype: np.dtype) -> Optional[np.ndarray]:
        """The batch's additive segment mask
        (:func:`~repro.kernels.batched.segment_bias`) in ``dtype``, built
        on the first call and shared by every later one."""
        if not self._bias_built:
            self._bias = segment_bias(self.lengths, self.max_len, dtype)
            self._bias_built = True
        return self._bias

    def gathered(
        self,
        layer_key: Hashable,
        k_cache: np.ndarray,
        v_cache: np.ndarray,
        key_transposed: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gathered K/V for this batch — K indexed key-transposed ``[n,
        kv_heads, head_dim, max_len]``, V ``[n, kv_heads, max_len,
        head_dim]`` — staging only the columns that changed since the
        last call for ``layer_key``.  ``key_transposed=False`` keeps K's
        memory head-major and returns its transposed view."""
        return self._cache._gathered(
            layer_key, k_cache, v_cache, self.n, self.max_len, key_transposed
        )


class PackedDecodeCache:
    """Keeps decode-batch packing metadata and gathered KV alive across
    iterations.  See the module docstring for the lifecycle."""

    def __init__(self) -> None:
        rows, ctx = INITIAL_ROWS, INITIAL_CONTEXT
        self._rows_cap = rows
        self._ctx_cap = ctx
        self._table = np.zeros((rows, ctx), dtype=np.int64)
        self._lengths = np.zeros(rows, dtype=np.int64)
        self._prefix_lengths = np.zeros(rows, dtype=np.int64)
        self._rows: List[Optional[_RowState]] = [None] * rows
        self._staging: Dict[Hashable, _LayerStaging] = {}
        #: The latest pack's stale-row indexes, keyed by the watermark
        #: bytes each was computed from (see :meth:`_gathered`).
        self._stale: Dict[bytes, _StaleIndex] = {}
        self._staging_disabled = False
        self.stats: Dict[str, int] = {
            "packs": 0,
            "extended_rows": 0,
            "reused_rows": 0,
            "repaired_rows": 0,
            "rebuilt_rows": 0,
            "ctx_growths": 0,
            "row_growths": 0,
        }

    # ------------------------------------------------------------------ #
    # capacity management                                                #
    # ------------------------------------------------------------------ #

    def _grow_to(self, current: int, required: int) -> int:
        target = current
        while target < required:
            target = int(target * GROWTH) + 1
        return target

    def _ensure_capacity(self, rows: int, ctx: int) -> None:
        if rows > self._rows_cap:
            new_rows = self._grow_to(self._rows_cap, rows)
            table = np.zeros((new_rows, self._ctx_cap), dtype=np.int64)
            table[: self._rows_cap] = self._table
            lengths = np.zeros(new_rows, dtype=np.int64)
            lengths[: self._rows_cap] = self._lengths
            prefix_lengths = np.zeros(new_rows, dtype=np.int64)
            prefix_lengths[: self._rows_cap] = self._prefix_lengths
            self._table, self._lengths = table, lengths
            self._prefix_lengths = prefix_lengths
            self._rows.extend([None] * (new_rows - self._rows_cap))
            self._regrow_staging(new_rows, self._ctx_cap)
            self._rows_cap = new_rows
            self.stats["row_growths"] += 1
        if ctx > self._ctx_cap:
            new_ctx = self._grow_to(self._ctx_cap, ctx)
            table = np.zeros((self._rows_cap, new_ctx), dtype=np.int64)
            table[:, : self._ctx_cap] = self._table
            self._table = table
            self._regrow_staging(self._rows_cap, new_ctx)
            self._ctx_cap = new_ctx
            self.stats["ctx_growths"] += 1

    def _over_budget(self, rows: int, ctx: int, layout: _Layout) -> bool:
        """Whether one layer's K staging at ``rows`` x ``ctx`` slots of
        ``layout`` would exceed the staging budget."""
        kv_heads, head_dim, dtype, _ = layout
        nbytes = rows * ctx * kv_heads * head_dim * np.dtype(dtype).itemsize
        return nbytes > STAGING_BUDGET_BYTES

    def _regrow_staging(self, rows: int, ctx: int) -> None:
        """Reallocate every layer's staging at ``rows`` x ``ctx`` with
        every gathered watermark reset, so the next gather refills only
        live columns — or, when a grown buffer would exceed the budget,
        drop staging for good (fresh-gather fallback)."""
        layouts = {key: st.layout for key, st in self._staging.items()}
        if any(self._over_budget(rows, ctx, lay) for lay in layouts.values()):
            self._staging.clear()
            self._staging_disabled = True
            return
        for key, layout in layouts.items():
            self._staging[key] = _LayerStaging.allocate(rows, ctx, layout)

    def _fallback_gather(
        self, n: int, max_len: int, k_cache: np.ndarray, v_cache: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Full gather used when staging is disabled (over budget), viewed
        in the staging layout; the packed table itself is still
        incremental."""
        table = self._table[:n, :max_len]
        return (
            k_cache[table].transpose(0, 2, 3, 1),
            v_cache[table].transpose(0, 2, 1, 3),
        )

    # ------------------------------------------------------------------ #
    # packing                                                            #
    # ------------------------------------------------------------------ #

    def _write_row(self, row: int, source: DecodeSlotSource) -> None:
        prefix_len = len(source.prefix)
        total = source.total_len
        if prefix_len:
            self._table[row, :prefix_len] = source.prefix
        self._table[row, prefix_len:total] = source.table.slots_array(
            0, source.table.length
        )
        # Zero the padding so the incremental table stays array-equal to a
        # from-scratch pack (and stale slot ids can never be gathered).
        self._table[row, total:] = 0
        self._lengths[row] = total
        self._prefix_lengths[row] = prefix_len
        for st in self._staging.values():
            st.gathered[row] = 0

    def pack(self, sources: Sequence[DecodeSlotSource]) -> PackedBatch:
        """Bring the packed state up to date for ``sources`` (one decode
        batch, in execution order) and return a view of it."""
        n = len(sources)
        if n == 0:
            raise ValueError("cannot pack an empty decode batch")
        totals = [s.total_len for s in sources]
        max_len = max(totals)
        self._ensure_capacity(n, max_len)
        self._stale = {}
        table, lengths, stats = self._table, self._lengths, self.stats
        extended = reused = 0

        for i, (source, total) in enumerate(zip(sources, totals)):
            state = self._rows[i]
            same = state is not None and state.source is source
            version = source.table.structure_version
            if same and state.structure_version == version:
                packed_len = state.packed_len
                if total == packed_len + 1:
                    # The decode step: one new slot, one lookup.
                    table[i, packed_len] = source.table.slot(
                        packed_len - len(source.prefix)
                    )
                    lengths[i] = total
                    state.packed_len = total
                    extended += 1
                    continue
                if total == packed_len:
                    reused += 1
                    continue
            self._write_row(i, source)
            self._rows[i] = _RowState(source, version, total)
            stats["repaired_rows" if same else "rebuilt_rows"] += 1

        stats["packs"] += 1
        stats["extended_rows"] += extended
        stats["reused_rows"] += reused
        return PackedBatch(self, n, max_len)

    # ------------------------------------------------------------------ #
    # gathered-KV staging                                                #
    # ------------------------------------------------------------------ #

    def _gathered(
        self,
        layer_key: Hashable,
        k_cache: np.ndarray,
        v_cache: np.ndarray,
        n: int,
        max_len: int,
        key_transposed: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self._staging_disabled:
            return self._fallback_gather(n, max_len, k_cache, v_cache)
        staging = self._staging.get(layer_key)
        kv_heads, head_dim = k_cache.shape[1:]
        layout = (kv_heads, head_dim, k_cache.dtype, key_transposed)
        if staging is None or staging.layout != layout:
            if self._over_budget(self._rows_cap, self._ctx_cap, layout):
                self._staging_disabled = True
                return self._fallback_gather(n, max_len, k_cache, v_cache)
            staging = _LayerStaging.allocate(self._rows_cap, self._ctx_cap, layout)
            self._staging[layer_key] = staging

        done = staging.gathered[:n]
        # Every layer of a pack usually holds the same watermark, so the
        # index computed for one serves all whose watermark is equal.
        watermark = done.tobytes()
        index = self._stale.get(watermark)
        if index is None:
            index = self._stale[watermark] = self._stale_index(done)
        if index.rows.size:
            if index.slots is not None:
                # Steady-state decode: every stale row grew by one slot —
                # one vectorized gather for the whole batch.
                staging.k[index.rows, :, :, index.cols] = k_cache[index.slots]
                staging.v[index.rows, :, index.cols] = v_cache[index.slots]
            else:
                for row, a in zip(index.rows.tolist(), index.cols.tolist()):
                    b = int(self._lengths[row])
                    slots = self._table[row, a:b]
                    staging.k[row, :, :, a:b] = k_cache[slots].transpose(1, 2, 0)
                    staging.v[row, :, a:b] = v_cache[slots].transpose(1, 0, 2)
            done[:] = self._lengths[:n]
        return staging.k[:n, :, :, :max_len], staging.v[:n, :, :max_len]

    def _stale_index(self, done: np.ndarray) -> _StaleIndex:
        """Which of the packed rows a layer whose watermark is ``done``
        must gather, and where: the latest pack's columns past ``done``."""
        lengths = self._lengths[: done.shape[0]]
        rows = np.nonzero(done < lengths)[0]
        cols = done[rows]
        if bool((lengths[rows] - cols == 1).all()):
            return _StaleIndex(rows, cols, self._table[rows, cols])
        return _StaleIndex(rows, cols, None)

    # ------------------------------------------------------------------ #
    # reference                                                          #
    # ------------------------------------------------------------------ #

    @staticmethod
    def pack_from_scratch(
        sources: Sequence[DecodeSlotSource],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The non-incremental oracle: the padded table and lengths built
        fresh, exactly as :func:`batched_single_token_attention` would."""
        n = len(sources)
        lengths = np.array([s.total_len for s in sources], dtype=np.int64)
        width = int(lengths.max()) if n else 0
        table = np.zeros((n, width), dtype=np.int64)
        for i, s in enumerate(sources):
            prefix_len = len(s.prefix)
            if prefix_len:
                table[i, :prefix_len] = s.prefix
            table[i, prefix_len : lengths[i]] = s.table.slots_array(
                0, s.table.length
            )
        return table, lengths


def packed_decode_attention(
    queries: np.ndarray,
    batch: PackedBatch,
    layer_key: Hashable,
    k_cache: np.ndarray,
    v_cache: np.ndarray,
) -> np.ndarray:
    """Single-token decode attention over a :class:`PackedBatch`.

    The same :func:`segment_masked_decode` math as
    :func:`~repro.kernels.batched.batched_single_token_attention`, and
    bit-identical to it for grouped-query models; the difference is
    where K/V come from — the cache's incremental staging buffers
    instead of a fresh full gather — and that the segment mask is built
    once per pack.

    Args:
        queries: ``[n, num_heads, head_dim]`` newest-token queries in row
            order.
        batch: the view returned by the most recent ``pack``.
        layer_key: identifies the (k_cache, v_cache) pair across calls —
            the transformer passes its layer index.

    Returns:
        ``[n, num_heads, head_dim]`` attention outputs.
    """
    n, num_heads, head_dim = queries.shape
    if n != batch.n:
        raise ValueError(f"query batch {n} does not match packed batch {batch.n}")
    kv_heads = k_cache.shape[1]
    group = _grouped_heads(num_heads, kv_heads)
    # Wider groups make the score product a GEMM, which rounds the same
    # in either K layout and runs without a transposed operand in the
    # key-transposed one.  A group of one makes it a matrix-vector
    # product whose rounding follows K's memory layout, so that K stays
    # head-major: faster key-transposed scores would move its tokens.
    k_t, v = batch.gathered(layer_key, k_cache, v_cache, key_transposed=group > 1)
    q = np.ascontiguousarray(queries).reshape(n, kv_heads, group, head_dim)
    bias = batch.bias(k_cache.dtype)
    out = segment_masked_decode(q, k_t, v, bias, attention_scale(head_dim))
    return out.reshape(n, num_heads, head_dim)
