"""Tests for the CPU chunk store's checksummed reads."""

import numpy as np
import pytest

from repro.faults import ChunkCorruptionError, FaultPlan, FaultSite
from repro.kvcache.storage import CpuChunkStore, _checksum


def chunk_data(tokens=4, layers=2, heads=2, dim=3, fill=1.0):
    k = np.full((layers, tokens, heads, dim), fill, dtype=np.float32)
    v = np.full((layers, tokens, heads, dim), fill + 0.5, dtype=np.float32)
    return k, v


class TestStoreBasics:
    def test_put_get_pop_roundtrip(self):
        store = CpuChunkStore(capacity_tokens=64)
        k, v = chunk_data()
        store.put(1, 0, k, v)
        got_k, got_v = store.get(1, 0)
        np.testing.assert_array_equal(got_k, k)
        np.testing.assert_array_equal(got_v, v)
        store.pop(1, 0)
        assert not store.contains(1, 0)
        assert store.used_tokens == 0

    def test_capacity_enforced(self):
        store = CpuChunkStore(capacity_tokens=4)
        k, v = chunk_data(tokens=4)
        store.put(1, 0, k, v)
        with pytest.raises(MemoryError):
            store.put(1, 1, k, v)

    def test_checksum_mixes_k_and_v(self):
        k, v = chunk_data()
        base = _checksum(k, v)
        assert _checksum(v, k) != base  # order matters
        k2 = k.copy()
        k2.flat[0] += 1.0
        assert _checksum(k2, v) != base


class TestCorruptionDetection:
    def test_external_corruption_detected_on_get(self):
        store = CpuChunkStore(capacity_tokens=64)
        k, v = chunk_data()
        store.put(1, 0, k, v)
        stored_k, _ = store._entries[(1, 0)]
        stored_k.flat[5] += 1e-3  # bit rot after insertion
        with pytest.raises(ChunkCorruptionError):
            store.get(1, 0)

    def test_injected_corruption_detected_and_entry_retained(self):
        plan = FaultPlan(seed=0, schedules={FaultSite.CPU_READ: (0,)})
        store = CpuChunkStore(capacity_tokens=64, fault_plan=plan)
        k, v = chunk_data()
        store.put(1, 0, k, v)
        with pytest.raises(ChunkCorruptionError) as excinfo:
            store.pop(1, 0)
        assert excinfo.value.conv_id == 1
        assert excinfo.value.chunk_index == 0
        # The entry stays so recovery can invalidate it deliberately.
        assert store.contains(1, 0)
        assert store.used_tokens == 4
        store.drop(1, 0)
        assert store.used_tokens == 0

    def test_unfired_plan_reads_cleanly(self):
        plan = FaultPlan(seed=0)  # no rates, no schedules
        store = CpuChunkStore(capacity_tokens=64, fault_plan=plan)
        k, v = chunk_data()
        store.put(1, 0, k, v)
        for _ in range(5):
            store.get(1, 0)
        got_k, got_v = store.pop(1, 0)
        np.testing.assert_array_equal(got_k, k)
        np.testing.assert_array_equal(got_v, v)


class TestVerifyOnRead:
    def test_missing_chunk_raises_keyerror(self):
        store = CpuChunkStore(capacity_tokens=64)
        with pytest.raises(KeyError):
            store.get(9, 9)
        with pytest.raises(KeyError):
            store.pop(9, 9)

    def test_enabled_catches_corruption_on_pop(self):
        store = CpuChunkStore(capacity_tokens=64)
        k, v = chunk_data()
        store.put(1, 0, k, v)
        stored_k, _ = store._entries[(1, 0)]
        stored_k.flat[0] -= 1.0
        with pytest.raises(ChunkCorruptionError):
            store.pop(1, 0)
