"""Numpy tensor storage for the cache tiers.

:class:`KVStorage` is the "GPU memory": per-layer K and V arrays indexed by
flat slot index (page id x page size + offset).  :class:`CpuChunkStore` is
the "CPU memory" and :class:`DiskChunkStore` the "NVMe tier": associative
stores of evicted chunks keyed by ``(conversation id, chunk index)``, both
built on the same :class:`_ChunkStoreBase` so the two tiers share one
verified data path (per-chunk CRC32, coalesced batch insert/remove,
fault-injection hooks) and differ only in their counter namespace and
fault site.

Demotion between tiers uses :meth:`_ChunkStoreBase.transfer_to`, which
moves a chunk *with its insertion-time checksum* — the CRC computed when
the chunk first left the GPU travels to disk unchanged, so corruption
introduced at any hop is still caught at the final read (end-to-end
integrity, not per-tier integrity).

Only the functional layer allocates these; the performance simulation runs
the identical bookkeeping code with ``storage=None``.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.errors import ChunkCorruptionError
from repro.faults.plan import FaultPlan, FaultSite
from repro.obs.tracer import NULL_TRACER

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
        # Persistent scratch for write_slots_stacked: grown geometrically
        # to the largest transfer seen, then reused, so steady-state
        # coalesced swap-ins allocate nothing.
        self._stack_idx = np.empty(0, dtype=np.int64)
        self._stack_k = np.empty((config.num_layers, 0) + shape[2:], dtype=dtype)
        self._stack_v = np.empty((config.num_layers, 0) + shape[2:], dtype=dtype)

    def _stacked_scratch(
        self, total: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scratch views holding ``total`` stacked tokens, reallocating
        only when the capacity high-water mark moves."""
        if self._stack_idx.shape[0] < total:
            cap = max(total, 2 * self._stack_idx.shape[0])
            tail = self.k.shape[2:]
            layers = self.k.shape[0]
            self._stack_idx = np.empty(cap, dtype=np.int64)
            self._stack_k = np.empty((layers, cap) + tail, dtype=self.k.dtype)
            self._stack_v = np.empty((layers, cap) + tail, dtype=self.v.dtype)
        return (
            self._stack_idx[:total],
            self._stack_k[:, :total],
            self._stack_v[:, :total],
        )

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

    def read(
        self, layer: int, slots: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gather K/V rows for ``slots`` in ``layer`` (logical order)."""
        idx = np.asarray(slots, dtype=np.int64)
        return self.k[layer, idx], self.v[layer, idx]

    def read_all_layers(
        self, slots: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gather K/V rows for ``slots`` across all layers at once.

        Returns arrays of shape ``[num_layers, len(slots), kv_heads, head_dim]``.
        """
        idx = np.asarray(slots, dtype=np.int64)
        return self.k[:, idx], self.v[:, idx]

    def write_all_layers(
        self, slots: Sequence[int], k: np.ndarray, v: np.ndarray
    ) -> None:
        """Scatter K/V rows for ``slots`` across all layers at once."""
        idx = np.asarray(slots, dtype=np.int64)
        self.k[:, idx] = k
        self.v[:, idx] = v

    def read_slots_stacked(
        self, slot_groups: Sequence[Sequence[int]]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Gather several slot groups (e.g. swap-out chunks) in ONE
        all-layer fancy-index over the concatenated indices.

        Returns one ``(k, v)`` pair per group, each of shape
        ``[num_layers, len(group), kv_heads, head_dim]`` — views into
        the stacked gather, split back along the slot axis.  Equivalent
        to calling :meth:`read_all_layers` per group, but the cache is
        traversed once for the whole transfer (the coalesced data path
        of the two-tier manager).
        """
        sizes = [len(group) for group in slot_groups]
        if not sizes:
            return []
        idx = np.concatenate(
            [np.asarray(group, dtype=np.int64) for group in slot_groups]
        )
        k = self.k[:, idx]
        v = self.v[:, idx]
        bounds = np.cumsum([0] + sizes)
        return [
            (k[:, bounds[i] : bounds[i + 1]], v[:, bounds[i] : bounds[i + 1]])
            for i in range(len(sizes))
        ]

    def write_slots_stacked(
        self,
        slot_groups: Sequence[Sequence[int]],
        kvs: Sequence[Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Scatter several chunks' ``(k, v)`` data in ONE all-layer
        fancy-index over the concatenated indices (coalesced swap-in).

        ``kvs[i]`` carries group ``i``'s arrays, each
        ``[num_layers, len(slot_groups[i]), kv_heads, head_dim]``.
        Groups must reference distinct slots (chunk slot sets are
        disjoint by construction).
        """
        if len(slot_groups) != len(kvs):
            raise ValueError(
                f"{len(slot_groups)} slot groups but {len(kvs)} K/V pairs"
            )
        if not slot_groups:
            return
        groups = [np.asarray(group, dtype=np.int64) for group in slot_groups]
        for group, (k, v) in zip(groups, kvs):
            if k.shape[1] != len(group) or v.shape[1] != len(group):
                raise ValueError(
                    f"K/V token count {k.shape[1]}/{v.shape[1]} != "
                    f"slot count {len(group)}"
                )
        # Fill persistent scratch instead of np.concatenate-ing three
        # temporaries per call: tests/kvcache/test_swap_coalescing.py
        # asserts the steady state allocates nothing.
        total = sum(len(group) for group in groups)
        idx, stack_k, stack_v = self._stacked_scratch(total)
        offset = 0
        for group, (k, v) in zip(groups, kvs):
            end = offset + len(group)
            idx[offset:end] = group
            stack_k[:, offset:end] = k
            stack_v[:, offset:end] = v
            offset = end
        self.k[:, idx] = stack_k
        self.v[:, idx] = stack_v


def _checksum(k: np.ndarray, v: np.ndarray) -> int:
    """CRC32 over a chunk's K and V bytes (cheap end-to-end integrity)."""
    return zlib.crc32(v.tobytes(), zlib.crc32(k.tobytes()))


class _ChunkStoreBase:
    """Associative store of evicted KV chunks shared by the CPU and disk
    tiers.

    Each entry holds the all-layer K/V tensors of one chunk, together with
    a CRC32 checksum computed when the chunk *entered the stored
    hierarchy*; every read re-verifies it, so corruption (real or injected
    through ``fault_plan``) is detected before the data can reach GPU
    pages.  Capacity is expressed in tokens; callers are responsible for
    making room (the tiered manager drops or demotes chunks by policy
    before inserting).

    Each tier's fault site (``CPU_READ`` / ``DISK_READ``) lives inside
    the verification path.

    Subclasses set :attr:`_LABEL` (human-readable tier name used in error
    messages), :attr:`_PREFIX` (tracer counter namespace) and
    :attr:`_FAULT_SITE` (which :class:`FaultSite` the verification path
    draws from).
    """

    _LABEL = "chunk"
    _PREFIX = "chunk_store"
    _FAULT_SITE: Optional[FaultSite] = None

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
        #: an occupancy gauge, all no-ops under the shared null tracer.
        self.tracer = NULL_TRACER

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

        ``entries`` holds ``(conv_id, chunk_index, k, v)`` tuples.  The
        insert is atomic: duplicates and capacity are checked for the
        whole batch up front, so either every chunk lands or none does.
        Counter totals (``<prefix>.put_bytes`` / ``put_chunks``) depend
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
        self._reserve(keys, sum(k.shape[1] for _, _, k, _ in entries))
        total_bytes = 0
        for key, (_, _, k, v) in zip(keys, entries):
            self._insert(key, k.copy(), v.copy(), _checksum(k, v))
            total_bytes += k.nbytes + v.nbytes
        if self.tracer.enabled and entries:
            self.tracer.count(f"{self._PREFIX}.put_bytes", total_bytes)
            self.tracer.count(f"{self._PREFIX}.put_chunks", len(entries))
            self.tracer.gauge(f"{self._PREFIX}.used_tokens", self.used_tokens)

    def _reserve(self, keys: Sequence[Tuple[int, int]], tokens: int) -> None:
        """Raise unless every key is new to this store and ``tokens`` more
        fit — checked before anything moves, so inserts are atomic."""
        for key in keys:
            if key in self._entries:
                raise KeyError(f"chunk {key} already in {self._LABEL} store")
        if self.used_tokens + tokens > self.capacity_tokens:
            raise MemoryError(
                f"{self._LABEL} store full: {self.used_tokens}+{tokens} > "
                f"{self.capacity_tokens}"
            )

    def _insert(
        self, key: Tuple[int, int], k: np.ndarray, v: np.ndarray, checksum: int
    ) -> None:
        self._entries[key] = (k, v)
        self._tokens[key] = k.shape[1]
        self._checksums[key] = checksum
        self.used_tokens += k.shape[1]

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
        if (
            self.fault_plan is not None
            and self._FAULT_SITE is not None
            and self.fault_plan.fires(self._FAULT_SITE)
        ):
            k.flat[0] += 1.0  # single bit-flip-equivalent perturbation
        if _checksum(k, v) != self._checksums[key]:
            if self.tracer.enabled:
                self.tracer.count(f"{self._PREFIX}.corrupt_chunks")
                self.tracer.instant(
                    f"{self._PREFIX}_corrupt", track="cache",
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
        draw from the tier's fault-injection site — and a corrupt chunk
        is *reported* instead of raised (its entry stays in the store),
        so the caller can degrade just the affected prefix while the
        healthy chunks still move in one batch.

        Returns:
            ``(popped, corrupt)``: ``popped`` is ``(chunk_index, (k, v))``
            for each healthy chunk, in request order; ``corrupt`` lists
            the chunk indices that failed verification.  Counter totals
            (``<prefix>.read_bytes`` / ``corrupt_chunks``) depend only on
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
        if self.tracer.enabled and popped:
            self.tracer.count(f"{self._PREFIX}.read_bytes", read_bytes)
            self.tracer.gauge(f"{self._PREFIX}.used_tokens", self.used_tokens)
        return popped, corrupt

    def drop(self, conv_id: int, chunk_index: int) -> None:
        """Discard a chunk (tier eviction)."""
        dropped = self._remove((conv_id, chunk_index))[0].shape[1]
        if self.tracer.enabled:
            self.tracer.count(f"{self._PREFIX}.dropped_tokens", dropped)
            self.tracer.gauge(f"{self._PREFIX}.used_tokens", self.used_tokens)

    def transfer_to(
        self, dst: "_ChunkStoreBase", conv_id: int, chunk_index: int
    ) -> int:
        """Move one chunk — data *and its original checksum* — into ``dst``
        (the CPU→disk demotion path).

        The data is handed over without re-verification and the CRC is
        carried rather than recomputed: a chunk corrupted while resident
        in this tier is therefore still caught when it is eventually read
        from ``dst`` (end-to-end integrity across demotion hops).  Arrays
        move by reference; ownership passes to ``dst``.

        Returns the number of bytes moved (for transfer accounting).

        Raises:
            KeyError: if ``dst`` already holds the chunk (nothing moves).
            MemoryError: if ``dst`` cannot fit the chunk (nothing moves).
        """
        key = (conv_id, chunk_index)
        tokens = self._tokens[key]
        dst._reserve([key], tokens)
        checksum = self._checksums[key]
        k, v = self._remove(key)
        dst._insert(key, k, v, checksum)
        nbytes = k.nbytes + v.nbytes
        if self.tracer.enabled:
            self.tracer.count(f"{self._PREFIX}.demoted_tokens", tokens)
            self.tracer.gauge(f"{self._PREFIX}.used_tokens", self.used_tokens)
        if dst.tracer.enabled:
            dst.tracer.count(f"{dst._PREFIX}.put_bytes", nbytes)
            dst.tracer.count(f"{dst._PREFIX}.put_chunks")
            dst.tracer.gauge(f"{dst._PREFIX}.used_tokens", dst.used_tokens)
        return nbytes

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


class CpuChunkStore(_ChunkStoreBase):
    """Host-memory store of evicted KV chunks (Tier 2).

    The ``CPU_READ`` fault site lives inside its verification path;
    counters are published under the ``cpu_store.*`` namespace.
    """

    _LABEL = "CPU"
    _PREFIX = "cpu_store"
    _FAULT_SITE = FaultSite.CPU_READ


class DiskChunkStore(_ChunkStoreBase):
    """Modeled-NVMe store of demoted KV chunks (Tier 3).

    Functionally identical to :class:`CpuChunkStore` — the timing
    difference lives in :class:`repro.gpu.nvme.NvmeEngine`, which the
    discrete-event engine consults, and the *placement* difference lives
    in the tiered manager's cross-tier retention policy.  The
    ``DISK_READ`` fault site lives inside its verification path; counters
    are published under the ``disk_store.*`` namespace.
    """

    _LABEL = "disk"
    _PREFIX = "disk_store"
    _FAULT_SITE = FaultSite.DISK_READ
