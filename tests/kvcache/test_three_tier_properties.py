"""Server walks over the three-tier (GPU/CPU/disk) state machine.

A real :class:`StatefulChatServer` with a tiny GPU/CPU and a disk tier
serves random multi-turn traffic (seeded); after every turn the physical
stores must mirror the manager's bookkeeping exactly (every CPU/GPU_CPU
chunk has a CPU-store entry, every DISK chunk a disk-store entry, nothing
else exists) and every stored chunk must still pass its CRC check.  The
manager's own three-tier walk is ``test_eviction_order.py``'s.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.server import StatefulChatServer
from repro.kvcache.chunks import ChunkLocation
from repro.model.config import tiny_opt_config

from tests.kvcache.layout import locations


def _assert_stores_mirror_manager(server: StatefulChatServer) -> None:
    """Every chunk lives in exactly one physical place, and that place is
    the one the manager's bookkeeping claims; all stored bytes still pass
    their insertion-time CRC."""
    expected_cpu = set()
    expected_disk = set()
    for cache in server.manager.conversations():
        for index, location in enumerate(locations(cache)):
            key = (cache.conv_id, index)
            if location in (ChunkLocation.CPU, ChunkLocation.GPU_CPU):
                expected_cpu.add(key)
            elif location is ChunkLocation.DISK:
                expected_disk.add(key)
    for conv_id, chunk_index in expected_cpu:
        assert server.cpu_store.contains(conv_id, chunk_index)
        server.cpu_store.get(conv_id, chunk_index)  # re-verifies the CRC
    for conv_id, chunk_index in expected_disk:
        assert server.disk_store.contains(conv_id, chunk_index)
        server.disk_store.get(conv_id, chunk_index)  # re-verifies the CRC
    # Count equality upgrades the subset checks to exact set equality:
    # no orphaned entries survive in either store.
    assert len(server.cpu_store) == len(expected_cpu)
    assert len(server.disk_store) == len(expected_disk)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_server_random_walk_keeps_tiers_coherent(seed):
    config = tiny_opt_config()
    server = StatefulChatServer(
        config,
        gpu_capacity_tokens=192,
        cpu_capacity_tokens=96,
        disk_capacity_tokens=2048,
        chunk_size=16,
        page_size=8,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    for _turn in range(20):
        conv = int(rng.integers(0, 6))
        prompt = [int(t) for t in rng.integers(1, config.vocab_size, size=rng.integers(8, 20))]
        server.chat(conv, prompt_ids=prompt, max_new_tokens=int(rng.integers(2, 9)))
        server.manager._audit()
        _assert_stores_mirror_manager(server)
    assert server.manager.stats["demoted_tokens"] > 0, (
        "walk must actually exercise the disk tier"
    )
    assert server.manager.stats["disk_hit_tokens"] > 0
