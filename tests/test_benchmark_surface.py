"""The surface ``benchmarks/serving`` reaches into ``src/`` for.

The benchmark instruments a server from outside — instance-attribute
wrappers on public methods and a delegate swapped in for
``model.backend`` — so renaming a wrapped method, or a kernel call that
stops going through ``self.backend``, breaks ``run.py --trace 1`` without
touching a file the tier-1 suite covers.  This test runs the benchmark's
own instrumentation against a small server so such a change fails here.
"""

import sys
from pathlib import Path

import pytest

from repro.core import StatefulChatServer
from repro.model import tiny_llama_config

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
