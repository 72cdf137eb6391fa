"""Golden digests of seeded runs: "no decision moved" as a tier-1 check.

Each row of :data:`DIGESTS` is one seeded run reduced to a 16-hex-digit
sha256 of everything it decided: every PCIe/NVMe transfer record, the
fault counters, ``manager.stats``, the serving statistics and the
iteration count for the simulated engines; the per-rate values the
serving benchmark's ``sim_sweep`` checks for repeat-exactness for the
rate sweep; the transcript's ``crc32``, ``manager.stats`` and the fault
counters for the functional server; the exact bits of the functional
model's logits and stored K/V over float64 storage, and of every
forward result and the stored K/V of ``chat_batch`` decode steps.  A refactor that
moves a victim, a byte, a token, a sim-clock value or a float64 logit
moves a digest.  A change that means to move one updates the table and
says which row moved and why.

The two ``recipe/`` rows are the manual parent-vs-change recipe earlier
changes ran by hand; their values are the ones recorded there.

The ``telemetry/`` rows arm the whole ``repro.obs`` layer (a
``Tracer`` and the SLO metrics layer) on the armed three-tier run and
hash its four artifacts: the Prometheus snapshot with the ledger
counters, the flight-recorder captures, the Chrome trace document and
the JSONL trace records with their wall-clock stamps removed.

``python -m tests.test_run_digests`` (from the repository root, with
``src`` on ``PYTHONPATH``) prints the current value of every row.

``test_same_seed_twice_in_one_process`` needs no stored digest, so it
also runs under ``CHAOS_EXTRA_SEED`` (one more fault seed per CI chaos
matrix entry): module-level state leaking between two runs in one
process (a memo, a cached table) would show as two different digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.engine import PensieveEngine
from repro.core.server import StatefulChatServer
from repro.experiments.common import (
    run_rate_sweep,
    run_serving_once,
    throughput_at_latency,
)
from repro.faults import FaultPlan, FaultSite, RequestFaultedError
from repro.gpu.device import A100_80GB
from repro.kvcache import KVStorage
from repro.model.config import OPT_13B, tiny_llama_config, tiny_opt_config
from repro.model.transformer import ForwardRequest, PagedTransformer
from repro.obs import (
    SloConfig,
    Tracer,
    ledger_counters,
    prometheus_snapshot,
    to_chrome_trace,
    to_jsonl,
)
from repro.serving.stateless import StatelessEngine
from repro.workload.dataset import SHAREGPT

from tests.model.test_float32_drift import DRIFT_BOUND, top2_margin
from tests.serving.conftest import TINY, scripted_conversation, spec_with_capacity

_EXTRA = os.environ.get("CHAOS_EXTRA_SEED")
FAULT_SEED = 11

_TRANSFER_FIELDS = (
    "direction", "num_bytes", "enqueue_time", "start_time", "end_time", "num_chunks",
)


def _hex(blob: object) -> str:
    return hashlib.sha256(repr(blob).encode()).hexdigest()[:16]


def _plan(seed: int, scale: float) -> FaultPlan:
    """Every fault site armed at ``scale`` x its rate scale."""
    return FaultPlan(
        seed=seed, rates={s: scale * s.rate_scale for s in FaultSite}
    )


def _recipe_conversations():
    return [
        scripted_conversation(i, [(24, 12), (16, 12), (12, 10)],
                              start=0.05 * i, think=0.3)
        for i in range(8)
    ]


def _mixed_conversations():
    """Contexts from 64 to ~1,200 tokens with staggered think times: the
    recompute cost of a deep chunk outweighs a longer idle time, so
    retention and LRU pick different victims."""
    return [
        scripted_conversation(
            i, [(32 + 320 * (i % 4), 32), (64, 16 + 8 * (i % 3)), (48, 24), (32, 16)],
            start=0.3 * i, think=1.0 + 0.7 * (i % 3),
        )
        for i in range(8)
    ]


def _engine_digest(factory, conversations, until: float) -> str:
    engine, stats = run_serving_once(factory, conversations, until=until, warmup=0.0)
    records = [
        tuple(getattr(r, f).value if f == "direction" else getattr(r, f)
              for f in _TRANSFER_FIELDS)
        for r in engine.pcie.history + engine.nvme.history
    ]
    return _hex((records, engine.metrics.faults.as_dict(), engine.manager.stats,
                 stats.as_dict(), engine.iterations))


def _pensieve_factory(
    disk: bool, armed: bool, policy: str, seed: int = FAULT_SEED, unified: bool = True
):
    """OPT-13B on an A100 whose KV cache holds 3,072 tokens and whose host
    memory holds 1,024, so every tier evicts; ``disk`` adds an NVMe tier
    and ``unified=False`` runs Figure 13's separate-batch ablation."""
    kv = OPT_13B.kv_bytes_per_token

    def factory(loop):
        spec = replace(A100_80GB, kv_cache_bytes=kv * 3072, cpu_memory_bytes=kv * 1024)
        return PensieveEngine(
            loop, OPT_13B, spec, chunk_size=32, policy=policy,
            disk_cache_tokens=8192 if disk else 0,
            fault_plan=_plan(seed, 0.1) if armed else None, unified=unified,
        )

    return factory


def pensieve_digest(
    disk: bool, armed: bool, policy: str, seed: int = FAULT_SEED, unified: bool = True
) -> str:
    factory = _pensieve_factory(disk, armed, policy, seed, unified)
    return _engine_digest(factory, _mixed_conversations(), until=120.0)


def telemetry_digest(seed: int = FAULT_SEED) -> str:
    """The armed three-tier retention run with a ``Tracer`` and the SLO
    layer armed: the digests of its Prometheus snapshot (ledger counters
    included), its flight captures, its Chrome trace document and its
    JSONL trace records without their ``wall*`` fields."""
    tracer = Tracer()
    engine, _ = run_serving_once(
        _pensieve_factory(True, True, "retention", seed), _mixed_conversations(),
        until=120.0, warmup=0.0, tracer=tracer,
        slo=SloConfig(ttft=0.2, tbt=0.03),
    )
    collector = engine.metrics
    prom = prometheus_snapshot(collector, counters=ledger_counters(engine))
    with tempfile.TemporaryDirectory() as tmp:
        cap_path = os.path.join(tmp, "captures.jsonl")
        collector.flight.dump_captures(cap_path)
        with open(cap_path, encoding="utf-8") as fh:
            captures = fh.read()
        chrome = to_chrome_trace(tracer, os.path.join(tmp, "trace.chrome.json"))
        jsonl = os.path.join(tmp, "trace.jsonl")
        to_jsonl(tracer, jsonl)
        with open(jsonl, encoding="utf-8") as fh:
            records = [
                {k: v for k, v in json.loads(line).items() if not k.startswith("wall")}
                for line in fh
            ]
    return _hex((_hex(prom), _hex(captures), _hex(json.dumps(chrome, sort_keys=True)),
                 _hex(records)))


def recipe_digest(armed: bool) -> str:
    """The earlier manual recipe: the tiny model, three tiers, LRU."""

    def factory(loop):
        spec = spec_with_capacity(192, cpu_memory_bytes=TINY.kv_bytes_per_token * 96)
        return PensieveEngine(
            loop, TINY, spec, chunk_size=16, policy="lru", disk_cache_tokens=4096,
            fault_plan=_plan(FAULT_SEED, 0.3) if armed else None,
        )

    return _engine_digest(factory, _recipe_conversations(), until=60.0)


def stateless_digest() -> str:
    """The vLLM-shaped stateless engine on the same workload."""

    def factory(loop):
        spec = replace(A100_80GB, kv_cache_bytes=OPT_13B.kv_bytes_per_token * 3072)
        return StatelessEngine("vLLM", loop, OPT_13B, spec)

    engine, stats = run_serving_once(
        factory, _mixed_conversations(), until=120.0, warmup=0.0
    )
    records = [
        (r.request_id, r.arrival_time, r.first_token_time, r.finish_time,
         r.prefilled_tokens)
        for r in engine.metrics.records
    ]
    return _hex((records, stats.as_dict(), engine.iterations))


def sweep_digest() -> str:
    """A two-rate ``run_rate_sweep`` of the OPT-13B/A100 engine at reduced
    scale, reduced to the values ``sim_sweep`` checks for repeat-exactness."""

    def extras(engine):
        return {
            "iterations": engine.iterations,
            "events": engine.loop.dispatched,
            "pcie_transfers": len(engine.pcie.history),
        }

    points = run_rate_sweep(
        lambda loop: PensieveEngine(loop, OPT_13B, A100_80GB),
        SHAREGPT, rates=(6.0, 12.0), duration=40.0, think_time_mean=10.0,
        seed=7, extras_fn=extras,
    )
    return _hex((throughput_at_latency(points, 0.12), points))


def starved_server(seed: int = FAULT_SEED) -> StatefulChatServer:
    """A starved three-tier functional server under an armed plan."""
    return StatefulChatServer(
        tiny_llama_config(), gpu_capacity_tokens=192, cpu_capacity_tokens=96,
        disk_capacity_tokens=4096, chunk_size=16, page_size=8, seed=0,
        fault_plan=_plan(seed, 0.3),
    )


def serve_script(server: StatefulChatServer) -> list:
    """Five turns of four conversations; a failed request's output is []."""
    vocab = server.config.vocab_size
    transcript = []
    for turn in range(5):
        for conv in range(4):
            prompt = [(conv * 17 + turn * 5 + i) % vocab for i in range(13)]
            try:
                out = server.chat(conv, prompt_ids=prompt, max_new_tokens=6)
            except RequestFaultedError:  # a terminal fault fails one request
                out = []
            transcript.append((conv, turn, out))
    return transcript


def server_digest(seed: int = FAULT_SEED) -> str:
    """The starved server's transcript, ``manager.stats`` and fault
    counters."""
    server = starved_server(seed)
    crc = zlib.crc32(repr(serve_script(server)).encode())
    return _hex((crc, server.manager.stats, server.fault_counters.as_dict()))


def model_digest() -> str:
    """Both tiny architectures over float64 storage: the exact bits of the
    ``forward_all_rows`` logits of a prefill batch, then of one mixed
    batch (a Figure 8(d) recompute split, a decode step, a fresh
    prefill), then of a decode batch, and of the stored K/V."""
    digest = hashlib.sha256()
    for config in (tiny_opt_config(), tiny_llama_config()):
        storage = KVStorage(config, num_slots=64, dtype=np.float64)
        model = PagedTransformer(config, storage, seed=0)

        def ids(n: int, start: int) -> list:
            return [(start + 7 * i) % config.vocab_size for i in range(n)]

        batches = [
            [
                ForwardRequest(ids(12, 1), list(range(12))),
                ForwardRequest(ids(5, 2), list(range(20, 25))),
            ],
            [
                ForwardRequest(  # positions 0-2 dropped, recomputed elsewhere
                    ids(3, 1) + ids(4, 3),
                    list(range(40, 43)) + list(range(3, 16)),
                    dropped=3,
                ),
                ForwardRequest(ids(1, 4), list(range(20, 26))),
                ForwardRequest(ids(6, 5), list(range(30, 36))),
            ],
            [
                ForwardRequest(ids(1, 6), list(range(20, 27))),
                ForwardRequest(ids(1, 7), list(range(30, 37))),
            ],
        ]
        for batch in batches:
            for logits in model.forward_all_rows(batch):
                digest.update(logits.tobytes())
        digest.update(storage.k.tobytes())
        digest.update(storage.v.tobytes())
    return digest.hexdigest()[:16]


def decode_digest() -> str:
    """``chat_batch`` decode steps behind a system prompt, for both tiny
    architectures over float32 and float64 storage: the bits of every
    forward result, the outputs, the packing cache's row counts and the
    final stored K/V.  Each turn rebuilds its row once and extends it by
    one slot per later step; the script covers a row that returns to the
    conversation it left, a swap-out and restore between two turns of one
    conversation, a context regrow, a reordered batch and a batch that
    shrinks from the tail."""
    digest = hashlib.sha256()
    script = [  # (conversations, prompt tokens, new tokens)
        ([0, 1, 2], 6, 6),
        ([0, 1, 2], 5, 4),
        ([3], 100, 4),  # swaps the others' leading chunks out
        ([0, 1, 2], 5, 4),
        ([2, 0, 1], 5, 4),
        ([2, 0], 5, 4),
    ]
    for config in (tiny_opt_config(), tiny_llama_config()):
        vocab = config.vocab_size
        for dtype in (np.float32, np.float64):
            server = StatefulChatServer(
                config, gpu_capacity_tokens=160, cpu_capacity_tokens=512,
                chunk_size=16, page_size=8, seed=0,
            )
            server.storage = KVStorage(
                config, num_slots=server.pool.capacity_tokens, dtype=dtype
            )
            server.model = PagedTransformer(config, server.storage, seed=0)
            forward = server.model.forward

            def observed(batch):
                logits = forward(batch)
                for row in logits:
                    digest.update(row.tobytes())
                return logits

            server.model.forward = observed
            server.set_system_prompt(prompt_ids=[(3 * i + 1) % vocab for i in range(5)])
            for turn, (convs, n, new) in enumerate(script):
                prompts = [
                    (c, [(11 * c + 7 * turn + i) % vocab for i in range(n)])
                    for c in convs
                ]
                out = server.chat_batch(prompts, max_new_tokens=new)
                digest.update(repr(sorted(out.items())).encode())
            digest.update(repr(sorted(server.model.decode_cache.stats.items())).encode())
            digest.update(server.storage.k.tobytes())
            digest.update(server.storage.v.tobytes())
    return digest.hexdigest()[:16]


RUNS = {
    "pensieve/2tier/unarmed/retention": lambda: pensieve_digest(False, False, "retention"),
    "pensieve/2tier/unarmed/lru": lambda: pensieve_digest(False, False, "lru"),
    "pensieve/2tier/armed/retention": lambda: pensieve_digest(False, True, "retention"),
    "pensieve/2tier/armed/lru": lambda: pensieve_digest(False, True, "lru"),
    "pensieve/2tier/separate": lambda: pensieve_digest(
        False, False, "retention", unified=False
    ),
    "pensieve/3tier/unarmed/retention": lambda: pensieve_digest(True, False, "retention"),
    "pensieve/3tier/unarmed/lru": lambda: pensieve_digest(True, False, "lru"),
    "pensieve/3tier/armed/retention": lambda: pensieve_digest(True, True, "retention"),
    "pensieve/3tier/armed/lru": lambda: pensieve_digest(True, True, "lru"),
    "recipe/3tier/unarmed/lru": lambda: recipe_digest(False),
    "recipe/3tier/armed/lru": lambda: recipe_digest(True),
    "stateless/vllm": stateless_digest,
    "sweep/opt-13b/2-rates": sweep_digest,
    "server/3tier/armed": server_digest,
    "model/float64/mixed-batch": model_digest,
    "server/decode-steps": decode_digest,
    "telemetry/3tier/armed/seed11": telemetry_digest,
    "telemetry/3tier/armed/seed23": lambda: telemetry_digest(23),
    "telemetry/3tier/armed/seed47": lambda: telemetry_digest(47),
}

DIGESTS = {
    "pensieve/2tier/unarmed/retention": "38f516d78915b46a",
    "pensieve/2tier/unarmed/lru": "15b000cbac6526ca",
    "pensieve/2tier/armed/retention": "6a16af03ae45f835",
    "pensieve/2tier/armed/lru": "c1791895348977bc",
    "pensieve/2tier/separate": "fa578a635ce603ef",
    "pensieve/3tier/unarmed/retention": "ebb9a07d0a9f2a21",
    "pensieve/3tier/unarmed/lru": "73f31d64cb21d232",
    "pensieve/3tier/armed/retention": "ce5a73b3f0018345",
    "pensieve/3tier/armed/lru": "29738aebe26911c9",
    "recipe/3tier/unarmed/lru": "494149babdf48bbb",
    "recipe/3tier/armed/lru": "d31c3134518aae3d",
    "stateless/vllm": "52f87e287eb88f3a",
    "sweep/opt-13b/2-rates": "0354b279803b5428",
    "server/3tier/armed": "3526e06261cb62e4",
    "model/float64/mixed-batch": "a1d82ab27d933482",
    "server/decode-steps": "62c9d98cb2c59beb",
    "telemetry/3tier/armed/seed11": "308dd540ef093e46",
    "telemetry/3tier/armed/seed23": "20c2c1f26a7c6eec",
    "telemetry/3tier/armed/seed47": "e2bc7a5b39e47bca",
}


def test_table_covers_every_run():
    assert DIGESTS.keys() == RUNS.keys()


@pytest.mark.parametrize("name", list(RUNS))
def test_digest_unchanged(name):
    assert RUNS[name]() == DIGESTS[name]


def test_server_row_tokens_clear_the_float32_drift_bound():
    """Every greedy token of the ``server/3tier/armed`` run wins by a
    top-2 margin over 10x the float32 model's drift bound, so another
    host's sgemm (another CPU or numpy build) cannot flip one, and the
    row's ``crc32`` does not depend on it."""
    server = starved_server()
    forward = server.model.forward
    margins = []

    def observed(batch):
        logits = forward(batch)
        margins.extend(top2_margin(row) for row in logits)
        return logits

    server.model.forward = observed
    serve_script(server)
    assert len(margins) > 100
    assert min(margins) > 10 * DRIFT_BOUND


@pytest.mark.parametrize(
    "seed", [FAULT_SEED] + ([int(_EXTRA)] if _EXTRA else [])
)
def test_same_seed_twice_in_one_process(seed):
    for run in (lambda: pensieve_digest(True, True, "retention", seed),
                lambda: server_digest(seed)):
        assert run() == run()


if __name__ == "__main__":
    for name, run in RUNS.items():
        print(f"    {name!r}: {run()!r},")
