"""Differential tests for the coalesced two-tier swap data path.

The coalesced primitives (``KVStorage.read_slots_stacked`` /
``write_slots_stacked``, ``put_many`` / ``pop_many`` on the CPU and disk
chunk stores) must be observationally identical to the per-chunk loops
they replace: bit-identical KV arrays, identical store occupancy and
checksums, and exactly matching tracer counter totals — coalescing
changes the number of transfers, not the accounting.
"""

import numpy as np
import pytest

from repro.faults.errors import ChunkCorruptionError
from repro.kvcache.storage import CpuChunkStore, DiskChunkStore, KVStorage
from repro.model.config import tiny_llama_config
from repro.obs import Tracer


def _make_case(seed=0, num_chunks=6, chunk_tokens=8, num_layers=3,
               kv_heads=2, head_dim=4):
    rng = np.random.default_rng(seed)
    total = num_chunks * chunk_tokens
    config = tiny_llama_config(
        num_layers=num_layers, hidden_size=8 * head_dim, num_heads=8,
        num_kv_heads=kv_heads,
    )
    perm = rng.permutation(total)
    groups = [
        perm[i * chunk_tokens : (i + 1) * chunk_tokens].astype(np.int64)
        for i in range(num_chunks)
    ]
    datas = [
        (
            rng.standard_normal((num_layers, chunk_tokens, kv_heads, head_dim)),
            rng.standard_normal((num_layers, chunk_tokens, kv_heads, head_dim)),
        )
        for _ in range(num_chunks)
    ]
    return config, total, groups, datas


def test_stacked_read_matches_per_group_reads():
    config, total, groups, datas = _make_case()
    storage = KVStorage(config, num_slots=total, dtype=np.float64)
    rng = np.random.default_rng(1)
    storage.k[:] = rng.standard_normal(storage.k.shape)
    storage.v[:] = rng.standard_normal(storage.v.shape)

    stacked = storage.read_slots_stacked(groups)
    assert len(stacked) == len(groups)
    for group, (k, v) in zip(groups, stacked):
        k_ref, v_ref = storage.read_all_layers(list(group))
        np.testing.assert_array_equal(k, k_ref)
        np.testing.assert_array_equal(v, v_ref)


def test_stacked_write_matches_per_chunk_writes_bit_exact():
    config, total, groups, datas = _make_case()
    a = KVStorage(config, num_slots=total, dtype=np.float64)
    b = KVStorage(config, num_slots=total, dtype=np.float64)
    for group, (k, v) in zip(groups, datas):
        a.write_all_layers(list(group), k, v)
    b.write_slots_stacked(groups, datas)
    np.testing.assert_array_equal(a.k, b.k)
    np.testing.assert_array_equal(a.v, b.v)


def test_stacked_write_reuses_scratch_in_steady_state():
    """After one warm-up transfer, a second of the same size leaves the
    staging scratch the same objects: coalesced swap-in allocates nothing
    in the steady state."""
    config, total, groups, datas = _make_case()
    storage = KVStorage(config, num_slots=total, dtype=np.float64)
    storage.write_slots_stacked(groups, datas)
    scratch = (storage._stack_idx, storage._stack_k, storage._stack_v)
    storage.write_slots_stacked(groups, datas)
    assert storage._stack_idx is scratch[0]
    assert storage._stack_k is scratch[1]
    assert storage._stack_v is scratch[2]


def test_stacked_roundtrip_preserves_bytes():
    """read_slots_stacked -> write_slots_stacked into a second storage
    reproduces the source slots verbatim (the swap-out/swap-in cycle)."""
    config, total, groups, _ = _make_case()
    src = KVStorage(config, num_slots=total, dtype=np.float64)
    dst = KVStorage(config, num_slots=total, dtype=np.float64)
    rng = np.random.default_rng(2)
    src.k[:] = rng.standard_normal(src.k.shape)
    src.v[:] = rng.standard_normal(src.v.shape)
    dst.write_slots_stacked(groups, src.read_slots_stacked(groups))
    np.testing.assert_array_equal(src.k, dst.k)
    np.testing.assert_array_equal(src.v, dst.v)


def test_stacked_write_validates_shapes():
    config, total, groups, datas = _make_case()
    storage = KVStorage(config, num_slots=total, dtype=np.float64)
    with pytest.raises(ValueError):
        storage.write_slots_stacked(groups[:2], datas[:1])
    k, v = datas[0]
    with pytest.raises(ValueError):
        storage.write_slots_stacked([groups[0]], [(k[:, :-1], v)])


@pytest.mark.parametrize("store_cls", [CpuChunkStore, DiskChunkStore])
def test_put_many_matches_per_chunk_puts(store_cls):
    _, total, _, datas = _make_case()
    a = store_cls(total)
    b = store_cls(total)
    a.tracer = Tracer()
    b.tracer = Tracer()
    for i, (k, v) in enumerate(datas):
        a.put(0, i, k, v)
    b.put_many([(0, i, k, v) for i, (k, v) in enumerate(datas)])

    assert a.used_tokens == b.used_tokens
    assert len(a) == len(b)
    assert a.chunks_of(0) == b.chunks_of(0)
    assert a._checksums == b._checksums
    # Counter totals reconcile exactly; only the transfer count differs.
    for name in ("put_bytes", "put_chunks"):
        counter = f"{store_cls._PREFIX}.{name}"
        assert a.tracer.counter(counter) == b.tracer.counter(counter) > 0
    # Every stored chunk still passes its CRC re-check.
    for i in range(len(datas)):
        b.get(0, i)


def test_put_many_is_atomic_on_capacity_overflow():
    _, total, _, datas = _make_case()
    store = CpuChunkStore(datas[0][0].shape[1] * 2)  # room for 2 chunks
    with pytest.raises(MemoryError):
        store.put_many([(0, i, k, v) for i, (k, v) in enumerate(datas[:3])])
    assert len(store) == 0 and store.used_tokens == 0


def test_put_many_rejects_duplicates_atomically():
    _, total, _, datas = _make_case()
    store = CpuChunkStore(total)
    k, v = datas[0]
    store.put(0, 1, k, v)
    with pytest.raises(KeyError):
        store.put_many([(0, 0, k, v), (0, 1, k, v)])
    with pytest.raises(KeyError):
        store.put_many([(0, 2, k, v), (0, 2, k, v)])
    assert store.chunks_of(0) == [1]


@pytest.mark.parametrize("store_cls", [CpuChunkStore, DiskChunkStore])
def test_pop_many_matches_per_chunk_pops(store_cls):
    _, total, _, datas = _make_case()
    a = store_cls(total)
    b = store_cls(total)
    a.tracer = Tracer()
    b.tracer = Tracer()
    for i, (k, v) in enumerate(datas):
        a.put(0, i, k, v)
        b.put(0, i, k, v)

    indices = [4, 1, 3]
    per = [(i, a.pop(0, i)) for i in indices]
    popped, corrupt = b.pop_many(0, indices)

    assert corrupt == []
    assert [i for i, _ in popped] == indices
    for (ia, (ka, va)), (ib, (kb, vb)) in zip(per, popped):
        assert ia == ib
        np.testing.assert_array_equal(ka, kb)
        np.testing.assert_array_equal(va, vb)
    assert a.used_tokens == b.used_tokens
    assert a.chunks_of(0) == b.chunks_of(0)
    assert a._checksums == b._checksums
    counter = f"{store_cls._PREFIX}.read_bytes"
    assert a.tracer.counter(counter) == b.tracer.counter(counter) > 0


def test_pop_many_reports_corrupt_chunks_and_retains_them():
    """A corrupt chunk is reported (not raised), stays in the store like
    a failed pop, and the healthy chunks still move."""
    _, total, _, datas = _make_case()
    store = CpuChunkStore(total)
    store.tracer = Tracer()
    for i, (k, v) in enumerate(datas[:4]):
        store.put(0, i, k, v)
    store._entries[(0, 2)][0].flat[0] += 1.0  # host-side bit flip

    popped, corrupt = store.pop_many(0, [0, 1, 2, 3])
    assert corrupt == [2]
    assert [i for i, _ in popped] == [0, 1, 3]
    assert store.contains(0, 2) and store.chunks_of(0) == [2]
    assert store.tracer.counter("cpu_store.corrupt_chunks") == 1
    # The retained entry keeps failing, exactly like pop would.
    with pytest.raises(ChunkCorruptionError):
        store.pop(0, 2)

