"""The surface ``benchmarks/serving`` reaches into ``src/`` for.

The benchmark instruments a server and a simulated engine from outside —
instance-attribute wrappers on public methods and a delegate swapped in
for ``model.backend`` — so renaming a wrapped method (``engine.pcie``'s
``transfer``, say), a record field it reads, or a kernel call that stops
going through ``self.backend``, breaks ``run.py --trace 1`` without
touching a file the tier-1 suite covers.  These tests run the
benchmark's own instrumentation against a small server and a small
engine so such a change fails here.
"""

import sys
from pathlib import Path

import pytest

from repro.core import PensieveEngine, StatefulChatServer
from repro.experiments.common import RatePoint, run_serving_once
from repro.model import tiny_llama_config

from tests.serving.conftest import TINY, scripted_conversation, spec_with_capacity

SERVING = Path(__file__).resolve().parents[1] / "benchmarks" / "serving"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``layers`` / ``tracing`` modules, importable only
    for the duration of one test (their names are too generic to leave
    on ``sys.path``)."""
    monkeypatch.syspath_prepend(str(SERVING))
    import layers
    import tracing

    yield layers, tracing
    for name in ("layers", "tracing"):
        sys.modules.pop(name, None)


def test_instrumented_server_records_every_layer(bench):
    layers, tracing = bench
    config = tiny_llama_config()
    # Exactly the keywords ``workloads.build_server`` passes.
    server = StatefulChatServer(
        config,
        gpu_capacity_tokens=512,
        cpu_capacity_tokens=512,
        chunk_size=16,
        page_size=8,
        seed=0,
        use_fast_paths=True,
        backend="paged",
    )
    tracer = tracing.Tracer()
    layers.instrument_server(server, tracer)
    pool_peak = layers.PoolPeak()
    for turn in range(2):
        prompts = [
            (conv, [(conv * 13 + turn * 7 + i) % config.vocab_size for i in range(6)])
            for conv in range(3)
        ]
        assert len(server.chat_batch(prompts, max_new_tokens=4)) == 3
        pool_peak.sample(server.pool)

    assert {
        "server.chat_batch",
        "model.forward.prefill",
        "model.forward.decode",
        "backend.decode_attention",
        "backend.ragged_attention",
        "packed_cache.pack",
    } <= set(tracer.name)
    metrics = layers.chat_metrics(tracer, server, pool_peak, 1.0, 0.0)
    assert {name for name, _, _ in layers.PER_LAYER} <= set(metrics)


def test_instrumented_engine_records_every_layer(bench):
    layers, tracing = bench
    tracer = tracing.Tracer()

    def factory(loop):
        # A GPU tier this small makes the run swap over PCIe.
        spec = spec_with_capacity(192, cpu_memory_bytes=TINY.kv_bytes_per_token * 512)
        engine = PensieveEngine(loop, TINY, spec, chunk_size=16, policy="lru")
        layers.instrument_engine(engine, tracer)
        return engine

    conversations = [
        scripted_conversation(i, [(24, 12), (16, 12)], start=0.05 * i, think=0.3)
        for i in range(8)
    ]
    with tracer.span("sweep.run_serving_once"):
        engine, stats = run_serving_once(factory, conversations, until=60.0)
    point = RatePoint(1.0, stats.throughput_rps, stats.mean_normalized_latency,
                      stats.p90_normalized_latency, stats.num_requests, {})

    assert {
        "loop.run",
        "costmodel.iteration_time",
        "pcie.transfer",
        "manager.swap_out",
    } <= set(tracer.name)
    metrics = layers.sim_metrics(
        tracer, [engine], [point, point], ttft_ms_p90=0.0, target=1.0,
        generate_s=0.0, traced_wall=1.0, overhead=1.0,
    )
    assert {name for name, _, _ in layers.PER_LAYER} <= set(metrics)
    history = engine.pcie.history
    assert metrics["pcie.transfers"] == len(history)
    assert tracer.name.count("pcie.transfer") == len(history)
    assert metrics["pcie.bytes"] == sum(r.num_bytes for r in history) > 0
