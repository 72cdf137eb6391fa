"""Disk-tier counter reconciliation: every observability counter the
NVMe link and the chunk stores emit must equal — exactly, not
approximately — the accounting the components themselves keep.

Three ledgers cover the same traffic and must agree to the byte:

- the tracer counters (``nvme.*``, ``disk_store.*``, ``cache.*``);
- the component accounting (the NVMe link's ``bytes_moved`` / ``history``,
  store ``used_tokens``);
- the eviction-scope stats (``demoted_tokens``, ``disk_hit_tokens``).

Both NVMe paths are exercised: the demotion flush coalesces many chunks
into one stacked write, while admission issues one read per restore —
the per-transfer and per-chunk counters must reconcile for each.
"""

import numpy as np
import pytest

from repro.core.engine import PensieveEngine
from repro.core.server import StatefulChatServer
from repro.experiments.common import run_serving_once
from repro.gpu.link import Direction
from repro.model.config import tiny_opt_config
from repro.obs import Tracer

from tests.serving.conftest import TINY, scripted_conversation, spec_with_capacity


def _workload():
    """Enough multi-turn conversations to overflow GPU *and* CPU tiers."""
    return [
        scripted_conversation(
            i, [(24, 12), (16, 12), (12, 10)], start=0.05 * i, think=0.3
        )
        for i in range(8)
    ]


def _factory(loop):
    spec = spec_with_capacity(192, cpu_memory_bytes=TINY.kv_bytes_per_token * 96)
    return PensieveEngine(
        loop, TINY, spec, chunk_size=16, policy="lru", disk_cache_tokens=4096
    )


def _run(tracer=None):
    return run_serving_once(
        _factory, _workload(), until=60.0, warmup=0.0, tracer=tracer
    )


class TestEngineNvmeReconciliation:
    def test_byte_counters_match_engine_accounting(self):
        tracer = Tracer()
        engine, _ = _run(tracer)
        assert engine.nvme.bytes_moved[Direction.WRITE] > 0
        assert engine.nvme.bytes_moved[Direction.READ] > 0
        assert tracer.counter("nvme.write_bytes") == engine.nvme.bytes_moved[
            Direction.WRITE
        ]
        assert tracer.counter("nvme.read_bytes") == engine.nvme.bytes_moved[
            Direction.READ
        ]

    def test_byte_counters_match_eviction_scope(self):
        """NVMe traffic is priced from the same token counts the eviction
        scope records: demotions write, disk restores read."""
        tracer = Tracer()
        engine, _ = _run(tracer)
        kv = TINY.kv_bytes_per_token
        stats = engine.manager.stats
        assert tracer.counter("nvme.write_bytes") == stats["demoted_tokens"] * kv
        assert tracer.counter("nvme.read_bytes") == stats["disk_hit_tokens"] * kv

    def test_transfer_and_chunk_counters_match_history(self):
        """Coalescing must not distort the ledgers: N demoted chunks in
        one stacked write still count N chunks but one transfer."""
        tracer = Tracer()
        engine, _ = _run(tracer)
        history = engine.nvme.history
        writes = [r for r in history if r.direction is Direction.WRITE]
        reads = [r for r in history if r.direction is Direction.READ]
        assert tracer.counter("nvme.write_transfers") == len(writes)
        assert tracer.counter("nvme.read_transfers") == len(reads)
        assert tracer.counter("nvme.write_chunks") == sum(
            r.num_chunks for r in writes
        )
        assert tracer.counter("nvme.read_chunks") == sum(
            r.num_chunks for r in reads
        )
        # Coalescing actually happened: fewer transfers than chunks.
        assert len(writes) < sum(r.num_chunks for r in writes)

    def test_cache_counters_mirror_disk_stats(self):
        tracer = Tracer()
        engine, _ = _run(tracer)
        for key in ("demoted_tokens", "disk_hit_tokens"):
            assert engine.manager.stats[key] > 0
            assert tracer.counter(f"cache.{key}") == engine.manager.stats[key]

    def test_disk_gauge_sampled(self):
        tracer = Tracer()
        _run(tracer)
        names = {g[0] for g in tracer.gauge_samples}
        assert "kv.disk_used_tokens" in names

    def test_tracing_does_not_perturb_disk_path(self):
        engine_a, stats_a = _run(tracer=None)
        engine_b, stats_b = _run(tracer=Tracer())
        assert stats_a.as_dict() == stats_b.as_dict()
        assert engine_a.manager.stats == engine_b.manager.stats
        assert engine_a.nvme.bytes_moved == engine_b.nvme.bytes_moved


class TestServerStoreReconciliation:
    def _walk(self, tracer):
        config = tiny_opt_config()
        server = StatefulChatServer(
            config,
            gpu_capacity_tokens=192,
            cpu_capacity_tokens=96,
            disk_capacity_tokens=2048,
            chunk_size=16,
            page_size=8,
            seed=0,
        )
        if tracer is not None:
            server.set_tracer(tracer)
        rng = np.random.default_rng(0)
        outputs = []
        for _ in range(20):
            conv = int(rng.integers(0, 6))
            prompt = [
                int(t)
                for t in rng.integers(1, config.vocab_size, size=rng.integers(8, 20))
            ]
            outputs.append(
                server.chat(
                    conv, prompt_ids=prompt,
                    max_new_tokens=int(rng.integers(2, 9)),
                )
            )
        return server, config, outputs

    def test_store_byte_counters_match_token_stats(self):
        tracer = Tracer()
        server, config, _ = self._walk(tracer)
        stats = server.manager.stats
        assert stats["demoted_tokens"] > 0 and stats["disk_hit_tokens"] > 0
        # The functional stores hold fp32 tensors while the model config
        # prices fp16 deployment state; scale accordingly.
        bytes_per_token = (
            config.kv_bytes_per_token
            // config.dtype_bytes
            * np.dtype(np.float32).itemsize
        )
        assert tracer.counter("cpu_store.demoted_tokens") == stats["demoted_tokens"]
        assert (
            tracer.counter("disk_store.put_bytes")
            == stats["demoted_tokens"] * bytes_per_token
        )
        assert (
            tracer.counter("disk_store.read_bytes")
            == stats["disk_hit_tokens"] * bytes_per_token
        )

    def test_store_gauges_track_live_occupancy(self):
        tracer = Tracer()
        server, _, _ = self._walk(tracer)
        samples = [
            g for g in tracer.gauge_samples if g[0] == "disk_store.used_tokens"
        ]
        assert samples
        assert samples[-1][-1] == server.disk_store.used_tokens
        assert server.disk_store.used_tokens == server.manager.disk_used_tokens

    def test_tracing_does_not_perturb_server_outputs(self):
        _, _, untraced = self._walk(None)
        server, _, traced = self._walk(Tracer())
        assert traced == untraced
        assert server.manager.stats["demoted_tokens"] > 0
