"""Incremental decode packing cache (the metadata-reuse layer).

:func:`~repro.kernels.batched.batched_single_token_attention` is already
one fused computation per decode step, but it rebuilds its padded
``[batch, max_context]`` slot table and re-gathers the **entire** paged
context from the KV cache on every iteration — even though each request's
block table grows by exactly one slot per step.  PersistentKV-style
profiling (PAPERS.md) says exactly this: long-context decode is
bottlenecked by KV movement and metadata churn, not matmuls.

:class:`PackedDecodeCache` keeps the packed slot table, per-row segment
lengths and per-layer gathered-KV staging buffers alive across decode
iterations and maintains them with a three-tier lifecycle, cheapest
first:

- **extend** — same request in the same row, block table only appended
  to since the last pack (``structure_version`` unchanged): write the new
  tail slots into the row and gather only the delta columns.  This is the
  +1-slot steady state of a decode loop.
- **repair** — same request in the same row, but its block table's
  ``structure_version`` moved (swap-out / swap-in / recompute rebuilt the
  mapping): repack that row from scratch and invalidate its staging
  columns.  Other rows are untouched.
- **rebuild** — a different request occupies the row (batch membership
  or order changed): repack the row and reset its staging.  Rows whose
  occupant is unchanged still take the extend/repair path, so a batch
  that shrinks from the tail — the common case when conversations finish
  — only pays for the rows that actually changed.

Capacities (rows and packed context width) grow geometrically and never
shrink, so the steady state allocates nothing.  Correctness leans on one
:class:`~repro.kvcache.pages.BlockTable` invariant: appends never remap
existing positions (only ``vacate_front`` / ``restore_front`` /
``release`` do, and those bump ``structure_version``), and the serving
layer only writes K/V for *newly appended* slots while a request is
resident — so staged KV columns stay valid exactly as long as the
structure version holds still.

The cache is numerically transparent: outputs of
:func:`packed_decode_attention` match the batched kernel (and therefore
the per-request oracle) to ~1e-12, pinned by
``tests/kernels/test_packed_cache.py`` under randomized mutation
interleavings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.batched import _grouped_heads, segment_masked_decode
from repro.kernels.reference import resolve_scale

_EMPTY_PREFIX = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class DecodeSlotSource:
    """One decode request's slot layout, described by reference.

    Args:
        key: stable identity of the request (conversation id).  Rows are
            reused across packs only while the key occupying them is
            unchanged.
        table: the request's :class:`~repro.kvcache.pages.BlockTable`
            (anything with ``length`` / ``structure_version`` /
            ``slots_array`` works).
        prefix: flat slot indices of a shared prefix (e.g. the pinned
            system prompt) that precedes the table's positions.  Pass the
            **same array object** every step — prefix identity is part of
            the row-reuse check.
    """

    key: Hashable
    table: Any
    prefix: np.ndarray = field(default_factory=lambda: _EMPTY_PREFIX)

    @property
    def total_len(self) -> int:
        return len(self.prefix) + self.table.length


@dataclass
class _RowState:
    key: Hashable
    table: Any
    structure_version: int
    prefix: np.ndarray
    prefix_len: int
    packed_len: int


@dataclass
class _LayerStaging:
    k: np.ndarray          # [rows_cap, ctx_cap, kv_heads, head_dim]
    v: np.ndarray          # same shape as k
    gathered: np.ndarray   # [rows_cap] columns of each row already staged


class PackedBatch:
    """A view of the cache's packed state for one decode iteration.

    Only the batch returned by the **most recent** :meth:`PackedDecodeCache.pack`
    call is valid; a later pack may rewrite rows in place.
    """

    def __init__(self, cache: "PackedDecodeCache", n: int, max_len: int) -> None:
        self._cache = cache
        self.n = n
        self.max_len = max_len

    @property
    def lengths(self) -> np.ndarray:
        """``[n]`` valid context length per row."""
        return self._cache._lengths[: self.n]

    @property
    def table(self) -> np.ndarray:
        """``[n, max_len]`` packed slot table (zero-padded past lengths)."""
        return self._cache._table[: self.n, : self.max_len]

    def gathered(
        self, layer_key: Hashable, k_cache: np.ndarray, v_cache: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gathered ``[n, max_len, kv_heads, head_dim]`` K/V for this
        batch, staging only the columns that changed since the last call
        for ``layer_key``."""
        return self._cache._gathered(layer_key, k_cache, v_cache, self.n, self.max_len)


class PackedDecodeCache:
    """Keeps decode-batch packing metadata and gathered KV alive across
    iterations.  See the module docstring for the lifecycle."""

    def __init__(
        self,
        initial_rows: int = 8,
        initial_context: int = 64,
        growth: float = 2.0,
        staging_budget_bytes: int = 256 * 2**20,
    ) -> None:
        if initial_rows <= 0 or initial_context <= 0:
            raise ValueError("initial capacities must be positive")
        if growth <= 1.0:
            raise ValueError(f"growth factor must exceed 1.0, got {growth}")
        self._growth = growth
        self._rows_cap = initial_rows
        self._ctx_cap = initial_context
        self._table = np.zeros((initial_rows, initial_context), dtype=np.int64)
        self._lengths = np.zeros(initial_rows, dtype=np.int64)
        self._rows: List[Optional[_RowState]] = [None] * initial_rows
        self._key_to_row: Dict[Hashable, int] = {}
        self._active = 0
        self._staging: Dict[Hashable, _LayerStaging] = {}
        self._staging_budget = staging_budget_bytes
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
            target = int(target * self._growth) + 1
        return target

    def _ensure_capacity(self, rows: int, ctx: int) -> None:
        if rows > self._rows_cap:
            new_rows = self._grow_to(self._rows_cap, rows)
            table = np.zeros((new_rows, self._ctx_cap), dtype=np.int64)
            table[: self._rows_cap] = self._table
            lengths = np.zeros(new_rows, dtype=np.int64)
            lengths[: self._rows_cap] = self._lengths
            self._table, self._lengths = table, lengths
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

    def _over_budget(
        self, rows: int, ctx: int, tail_shape: Tuple[int, ...], dtype: np.dtype
    ) -> bool:
        """Whether one layer's K staging at ``rows`` x ``ctx`` slots of
        ``tail_shape`` would exceed the staging budget."""
        nbytes = rows * ctx * int(np.prod(tail_shape)) * np.dtype(dtype).itemsize
        return nbytes > self._staging_budget

    def _regrow_staging(self, rows: int, ctx: int) -> None:
        """Reallocate every layer's staging at ``rows`` x ``ctx``,
        preserving already-gathered data — or, when a grown buffer would
        exceed the budget, drop staging for good (fresh-gather fallback)."""
        if any(
            self._over_budget(rows, ctx, st.k.shape[2:], st.k.dtype)
            for st in self._staging.values()
        ):
            self._staging.clear()
            self._staging_disabled = True
            return
        old_rows, old_ctx = self._rows_cap, self._ctx_cap
        for st in self._staging.values():
            shape = (rows, ctx) + st.k.shape[2:]
            k = np.zeros(shape, dtype=st.k.dtype)
            v = np.zeros(shape, dtype=st.v.dtype)
            g = np.zeros(rows, dtype=np.int64)
            k[:old_rows, :old_ctx], v[:old_rows, :old_ctx] = st.k, st.v
            g[:old_rows] = st.gathered
            st.k, st.v, st.gathered = k, v, g

    def _fallback_gather(
        self, n: int, max_len: int, k_cache: np.ndarray, v_cache: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Full gather used when staging is disabled (over budget); the
        packed table itself is still incremental."""
        table = self._table[:n, :max_len]
        return k_cache[table], v_cache[table]

    # ------------------------------------------------------------------ #
    # packing                                                            #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _row_matches(state: _RowState, source: DecodeSlotSource) -> bool:
        if state.table is not source.table:
            return False
        if state.structure_version != source.table.structure_version:
            return False
        if state.prefix_len != len(source.prefix):
            return False
        if state.prefix_len and state.prefix is not source.prefix:
            return False
        return state.packed_len <= source.total_len

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
        for st in self._staging.values():
            st.gathered[row] = 0

    def pack(self, sources: Sequence[DecodeSlotSource]) -> PackedBatch:
        """Bring the packed state up to date for ``sources`` (one decode
        batch, in execution order) and return a view of it."""
        n = len(sources)
        if n == 0:
            raise ValueError("cannot pack an empty decode batch")
        max_len = max(s.total_len for s in sources)
        self._ensure_capacity(n, max_len)
        self.stats["packs"] += 1

        for i, source in enumerate(sources):
            state = self._rows[i]
            if state is not None and state.key == source.key and self._row_matches(
                state, source
            ):
                total = source.total_len
                if total > state.packed_len:
                    start = state.packed_len - state.prefix_len
                    self._table[i, state.packed_len : total] = (
                        source.table.slots_array(start, source.table.length)
                    )
                    self._lengths[i] = total
                    state.packed_len = total
                    self.stats["extended_rows"] += 1
                else:
                    self.stats["reused_rows"] += 1
            else:
                changed_occupant = state is None or state.key != source.key
                self._write_row(i, source)
                self._rows[i] = _RowState(
                    key=source.key,
                    table=source.table,
                    structure_version=source.table.structure_version,
                    prefix=source.prefix,
                    prefix_len=len(source.prefix),
                    packed_len=source.total_len,
                )
                if changed_occupant:
                    self.stats["rebuilt_rows"] += 1
                else:
                    self.stats["repaired_rows"] += 1

        self._active = n
        self._key_to_row = {s.key: i for i, s in enumerate(sources)}
        return PackedBatch(self, n, max_len)

    def drop(self, key: Hashable) -> None:
        """Forget a request (e.g. an aborted conversation).  The row it
        occupied will be repacked on the next pack that lands there —
        essential when conversation ids are recycled, since a fresh
        :class:`BlockTable` restarts its version counters."""
        row = self._key_to_row.pop(key, None)
        if row is not None:
            state = self._rows[row]
            if state is not None and state.key == key:
                self._rows[row] = None

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
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self._staging_disabled:
            return self._fallback_gather(n, max_len, k_cache, v_cache)
        staging = self._staging.get(layer_key)
        tail_shape = k_cache.shape[1:]
        if staging is None or staging.k.shape[2:] != tail_shape or (
            staging.k.dtype != k_cache.dtype
        ):
            if self._over_budget(
                self._rows_cap, self._ctx_cap, tail_shape, k_cache.dtype
            ):
                self._staging_disabled = True
                return self._fallback_gather(n, max_len, k_cache, v_cache)
            shape = (self._rows_cap, self._ctx_cap) + tail_shape
            staging = _LayerStaging(
                k=np.zeros(shape, dtype=k_cache.dtype),
                v=np.zeros(shape, dtype=v_cache.dtype),
                gathered=np.zeros(self._rows_cap, dtype=np.int64),
            )
            self._staging[layer_key] = staging

        lengths = self._lengths[:n]
        done = staging.gathered[:n]
        stale = np.nonzero(done < lengths)[0]
        if stale.size:
            deltas = lengths[stale] - done[stale]
            if bool((deltas == 1).all()):
                # Steady-state decode: every stale row grew by one slot —
                # one vectorized gather for the whole batch.
                cols = done[stale]
                slots = self._table[stale, cols]
                staging.k[stale, cols] = k_cache[slots]
                staging.v[stale, cols] = v_cache[slots]
            else:
                for row in stale:
                    a, b = int(done[row]), int(lengths[row])
                    slots = self._table[row, a:b]
                    staging.k[row, a:b] = k_cache[slots]
                    staging.v[row, a:b] = v_cache[slots]
            staging.gathered[:n] = lengths
        return staging.k[:n, :max_len], staging.v[:n, :max_len]

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
    scale: float = 0.0,
) -> np.ndarray:
    """Single-token decode attention over a :class:`PackedBatch`.

    Numerically identical to
    :func:`~repro.kernels.batched.batched_single_token_attention` (it
    shares the same :func:`segment_masked_decode` math); the difference
    is purely where K/V come from — the cache's incremental staging
    buffers instead of a fresh full gather.

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
    k, v = batch.gathered(layer_key, k_cache, v_cache)
    q = np.ascontiguousarray(queries).reshape(n, kv_heads, group, head_dim)
    out = segment_masked_decode(q, k, v, batch.lengths, resolve_scale(scale, head_dim))
    return out.reshape(n, num_heads, head_dim)
