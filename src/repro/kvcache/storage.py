"""Numpy tensor storage for the cache tiers.

:class:`KVStorage` is the "GPU memory": per-layer K and V arrays indexed by
flat slot index (page id x page size + offset).  :class:`CpuChunkStore` is
the "CPU memory": an associative store of evicted chunks keyed by
``(conversation id, chunk index)``, with a verified data path (per-chunk
CRC32, coalesced batch insert/remove, the ``CPU_READ`` fault-injection
hook).

A swapped chunk crosses with one copy each way: swap-out gathers each
chunk once, into the array the store keeps, and the CRC32 is taken over
that array's own buffer; swap-in verifies the kept buffer in place and
scatters it into the GPU slots.  Every chunk is checksummed on insert
and verified on read, whether a fault plan is armed or not.

Only the functional layer allocates these; the performance simulation runs
the identical bookkeeping code with ``storage=None``.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.errors import ChunkCorruptionError
from repro.faults.plan import FaultPlan, FaultSite
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # avoids a circular import with repro.model
    from repro.model.config import ModelConfig


class KVStorage:
    """Per-layer K/V slot arrays backing a :class:`~repro.kvcache.pages.PagePool`.

    Shapes are ``[num_layers, num_slots, num_kv_heads, head_dim]``.  Slots
    are written through :meth:`write` during QKV projection and read (by
    flat slot index, in arbitrary order) by the paged attention kernels.
    """

    def __init__(
        self,
        config: ModelConfig,
        num_slots: int,
        dtype: np.dtype = np.float32,
    ) -> None:
        if num_slots <= 0:
            raise ValueError(f"num_slots must be positive, got {num_slots}")
        self.config = config
        self.num_slots = num_slots
        shape = (config.num_layers, num_slots, config.num_kv_heads, config.head_dim)
        self.k = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)

    def write(
        self,
        layer: int,
        slots: Sequence[int],
        k: np.ndarray,
        v: np.ndarray,
    ) -> None:
        """Store K/V rows for ``slots`` in ``layer``.

        ``k`` and ``v`` have shape ``[len(slots), num_kv_heads, head_dim]``.
        """
        idx = np.asarray(slots, dtype=np.int64)
        if k.shape[0] != len(idx) or v.shape[0] != len(idx):
            raise ValueError(
                f"K/V row count {k.shape[0]}/{v.shape[0]} != slot count {len(idx)}"
            )
        self.k[layer, idx] = k
        self.v[layer, idx] = v

    def read_all_layers(
        self, slots: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gather K/V rows for ``slots`` across all layers at once.

        Returns arrays of shape ``[num_layers, len(slots), kv_heads, head_dim]``.
        """
        idx = np.asarray(slots, dtype=np.int64)
        return self.k[:, idx], self.v[:, idx]

    def read_slots_stacked(
        self, slot_groups: Sequence[Sequence[int]]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Gather several slot groups (e.g. swap-out chunks), one
        all-layer gather per group.

        Returns one ``(k, v)`` pair per group, each a fresh C-contiguous
        array of shape ``[num_layers, len(group), kv_heads, head_dim]``
        that owns its data, so :meth:`_ChunkStoreBase.put_many` keeps it
        without another copy.  Equal to :meth:`read_all_layers` per group.
        """
        out = []
        for group in slot_groups:
            idx = np.asarray(group, dtype=np.int64)
            # ``take`` writes the layer-major result directly; ``k[:, idx]``
            # would return a transposed view of a slot-major buffer.
            out.append((np.take(self.k, idx, axis=1), np.take(self.v, idx, axis=1)))
        return out

    def write_slots_stacked(
        self,
        slot_groups: Sequence[Sequence[int]],
        kvs: Sequence[Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Scatter several chunks' ``(k, v)`` data (the swap-in restore),
        one all-layer scatter per chunk.

        ``kvs[i]`` carries group ``i``'s arrays, each
        ``[num_layers, len(slot_groups[i]), kv_heads, head_dim]``.
        Groups must reference distinct slots (chunk slot sets are
        disjoint by construction).  Every shape is checked before any
        slot is written.
        """
        if len(slot_groups) != len(kvs):
            raise ValueError(
                f"{len(slot_groups)} slot groups but {len(kvs)} K/V pairs"
            )
        groups = [np.asarray(group, dtype=np.int64) for group in slot_groups]
        for group, (k, v) in zip(groups, kvs):
            if k.shape[1] != len(group) or v.shape[1] != len(group):
                raise ValueError(
                    f"K/V token count {k.shape[1]}/{v.shape[1]} != "
                    f"slot count {len(group)}"
                )
        for group, (k, v) in zip(groups, kvs):
            self.k[:, group] = k
            self.v[:, group] = v


def _checksum(k: np.ndarray, v: np.ndarray) -> int:
    """CRC32 over a chunk's K and V bytes (cheap end-to-end integrity),
    read from the arrays' own buffers: both must be C-contiguous, as
    every stored chunk is.  The value equals the CRC of ``k.tobytes()``
    followed by ``v.tobytes()``."""
    return zlib.crc32(v, zlib.crc32(k))


def _owned(array: np.ndarray) -> np.ndarray:
    """``array`` itself when it owns a C-contiguous buffer, else a copy."""
    if array.flags.owndata and array.flags.c_contiguous:
        return array
    return array.copy()


class CpuChunkStore:
    """Host-memory store of evicted KV chunks (Tier 2).

    Each entry holds the all-layer K/V tensors of one chunk, together with
    a CRC32 checksum computed when the chunk left the GPU; every read
    re-verifies it, so corruption (real or injected through
    ``fault_plan``'s ``CPU_READ`` site, which lives inside the
    verification path) is detected before the data can reach GPU pages.
    Capacity is expressed in tokens; callers are responsible for making
    room (the tiered manager drops chunks by policy before inserting).
    Counters are published under the ``cpu_store.*`` namespace.
    """

    def __init__(
        self,
        capacity_tokens: int,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if capacity_tokens < 0:
            raise ValueError(f"capacity_tokens must be >= 0, got {capacity_tokens}")
        self.capacity_tokens = capacity_tokens
        self.fault_plan = fault_plan
        self._entries: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        self._tokens: Dict[Tuple[int, int], int] = {}
        self._checksums: Dict[Tuple[int, int], int] = {}
        self.used_tokens = 0
        #: Observability sink: byte counters for inserts/reads/drops plus
        #: an occupancy gauge; ``None`` (the default) records nothing.
        self.tracer: Optional[Tracer] = None

    def put(
        self,
        conv_id: int,
        chunk_index: int,
        k: np.ndarray,
        v: np.ndarray,
    ) -> None:
        """Insert one chunk's K/V data (arrays ``[layers, tokens, heads, dim]``):
        the :meth:`put_many` batch of one.

        Raises:
            MemoryError: if the chunk does not fit.
            KeyError: if the chunk is already stored.
        """
        self.put_many([(conv_id, chunk_index, k, v)])

    def put_many(
        self,
        entries: Sequence[Tuple[int, int, np.ndarray, np.ndarray]],
    ) -> None:
        """Insert several chunks as one coalesced transfer.

        ``entries`` holds ``(conv_id, chunk_index, k, v)`` tuples.  An
        array that owns a C-contiguous buffer (a fresh gather, as
        :meth:`KVStorage.read_slots_stacked` returns) is kept as given:
        the store takes it over, and the caller must not write to it
        afterwards.  Any other array (a view, a non-contiguous array) is
        copied first.  Each chunk's CRC32 is taken over the kept arrays.
        The insert is atomic: duplicates and capacity are checked for the
        whole batch up front, so either every chunk lands or none does.
        Counter totals (``cpu_store.put_bytes`` / ``put_chunks``) depend
        only on the chunks inserted, not on how they are batched —
        coalescing changes the number of transfers, not the accounting.

        Raises:
            MemoryError: if the batch does not fit (nothing inserted).
            KeyError: on a duplicate chunk (nothing inserted).
        """
        entries = list(entries)
        keys = [(conv_id, chunk_index) for conv_id, chunk_index, _, _ in entries]
        if len(set(keys)) != len(keys):
            raise KeyError(f"duplicate chunks in put_many batch: {keys}")
        for key in keys:
            if key in self._entries:
                raise KeyError(f"chunk {key} already in CPU store")
        tokens = sum(k.shape[1] for _, _, k, _ in entries)
        if self.used_tokens + tokens > self.capacity_tokens:
            raise MemoryError(
                f"CPU store full: {self.used_tokens}+{tokens} > "
                f"{self.capacity_tokens}"
            )
        total_bytes = 0
        for key, (_, _, k, v) in zip(keys, entries):
            k, v = _owned(k), _owned(v)
            self._entries[key] = (k, v)
            self._tokens[key] = k.shape[1]
            self._checksums[key] = _checksum(k, v)
            self.used_tokens += k.shape[1]
            total_bytes += k.nbytes + v.nbytes
        tracer = self.tracer
        if tracer is not None and entries:
            tracer.count("cpu_store.put_bytes", total_bytes)
            tracer.count("cpu_store.put_chunks", len(entries))
            tracer.gauge("cpu_store.used_tokens", self.used_tokens)

    def _remove(self, key: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
        data = self._entries.pop(key)
        self._checksums.pop(key)
        self.used_tokens -= self._tokens.pop(key)
        return data

    def _verify(self, key: Tuple[int, int]) -> None:
        """Check a stored chunk against its insertion-time checksum.

        An armed fault plan corrupts the stored bytes first, so the
        verification exercises the real detection path end to end.

        Raises:
            ChunkCorruptionError: on checksum mismatch.
        """
        k, v = self._entries[key]
        if self.fault_plan is not None and self.fault_plan.fires(
            FaultSite.CPU_READ
        ):
            k.flat[0] += 1.0  # single bit-flip-equivalent perturbation
        if _checksum(k, v) != self._checksums[key]:
            tracer = self.tracer
            if tracer is not None:
                tracer.count("cpu_store.corrupt_chunks")
                tracer.instant(
                    "cpu_store_corrupt", track="cache",
                    conv_id=key[0], chunk=key[1],
                )
            raise ChunkCorruptionError(conv_id=key[0], chunk_index=key[1])

    def get(self, conv_id: int, chunk_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Fetch a chunk's K/V data without removing it.

        Raises:
            ChunkCorruptionError: if the chunk fails its checksum (the
                entry stays in the store so recovery can invalidate it
                through the normal eviction path).
        """
        key = (conv_id, chunk_index)
        self._verify(key)
        return self._entries[key]

    def pop(self, conv_id: int, chunk_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Remove and return a chunk's K/V data: the :meth:`pop_many`
        batch of one, with the corrupt chunk raised instead of reported.

        Raises:
            ChunkCorruptionError: if the chunk fails its checksum; the
                entry is retained so the caller's recovery can drop it
                via the cache manager's invalidation path.
        """
        popped, corrupt = self.pop_many(conv_id, [chunk_index])
        if corrupt:
            raise ChunkCorruptionError(conv_id=conv_id, chunk_index=chunk_index)
        return popped[0][1]

    def pop_many(
        self, conv_id: int, chunk_indices: Sequence[int]
    ) -> Tuple[List[Tuple[int, Tuple[np.ndarray, np.ndarray]]], List[int]]:
        """Remove several chunks of one conversation as one coalesced
        transfer (the swap-in restore path).

        Every chunk is verified individually — its own CRC re-check and
        draw from the ``CPU_READ`` fault site — and a corrupt chunk
        is *reported* instead of raised (its entry stays in the store),
        so the caller can degrade just the affected prefix while the
        healthy chunks still move in one batch.

        Returns:
            ``(popped, corrupt)``: ``popped`` is ``(chunk_index, (k, v))``
            for each healthy chunk, in request order; ``corrupt`` lists
            the chunk indices that failed verification.  Counter totals
            (``cpu_store.read_bytes`` / ``corrupt_chunks``) depend only on
            the chunks read, not on how they are batched.
        """
        popped: List[Tuple[int, Tuple[np.ndarray, np.ndarray]]] = []
        corrupt: List[int] = []
        read_bytes = 0
        for chunk_index in chunk_indices:
            key = (conv_id, chunk_index)
            try:
                self._verify(key)
            except ChunkCorruptionError:
                corrupt.append(chunk_index)
                continue
            data = self._remove(key)
            read_bytes += data[0].nbytes + data[1].nbytes
            popped.append((chunk_index, data))
        tracer = self.tracer
        if tracer is not None and popped:
            tracer.count("cpu_store.read_bytes", read_bytes)
            tracer.gauge("cpu_store.used_tokens", self.used_tokens)
        return popped, corrupt

    def drop(self, conv_id: int, chunk_index: int) -> None:
        """Discard a chunk (tier eviction)."""
        dropped = self._remove((conv_id, chunk_index))[0].shape[1]
        tracer = self.tracer
        if tracer is not None:
            tracer.count("cpu_store.dropped_tokens", dropped)
            tracer.gauge("cpu_store.used_tokens", self.used_tokens)

    def contains(self, conv_id: int, chunk_index: int) -> bool:
        return (conv_id, chunk_index) in self._entries

    def chunks_of(self, conv_id: int) -> List[int]:
        """Chunk indices stored for one conversation, ascending."""
        return sorted(ci for c, ci in self._entries if c == conv_id)

    @property
    def free_tokens(self) -> int:
        return self.capacity_tokens - self.used_tokens

    def __len__(self) -> int:
        return len(self._entries)

