"""Per-layer metrics: where the wrappers go and how spans become numbers.

Layer names are the repo's modules.  Every ``*_s`` listed in
:data:`SELF_TIME` is a self time, so those metrics add up to the traced
wall time; ``model.prefill_s``, ``model.decode_s`` and ``loop.run_s`` are
inclusive (they contain their children) and are left out of that sum.
Every metric is reported on every workload; a layer the workload never
enters reports 0.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from tracing import Delegate, Tracer

#: (name, unit, better).  ``BENCHMARK.json``'s ``per_layer`` is this table.
PER_LAYER = [
    # core.server
    ("server.restore_s", "s", "lower"),
    ("server.ttft_ms_p50", "ms", "lower"),
    ("server.ttft_ms_p90", "ms", "lower"),
    ("server.tbt_ms_p50", "ms", "lower"),
    ("server.self_s", "s", "lower"),
    # model
    ("model.prefill_s", "s", "lower"),
    ("model.prefill_calls", "count", "lower"),
    ("model.prefill_tokens", "count", "lower"),
    ("model.decode_s", "s", "lower"),
    ("model.decode_steps", "count", "lower"),
    ("model.decode_step_ms_p50", "ms", "lower"),
    ("model.self_s", "s", "lower"),
    # backends / kernels
    ("backend.decode_attention_s", "s", "lower"),
    ("backend.decode_attention_calls", "count", "lower"),
    ("backend.ragged_attention_s", "s", "lower"),
    ("backend.ragged_attention_calls", "count", "lower"),
    ("backend.multi_token_attention_s", "s", "lower"),
    ("backend.multi_token_attention_calls", "count", "lower"),
    ("backend.batched_decode_attention_s", "s", "lower"),
    ("backend.batched_decode_attention_calls", "count", "lower"),
    # kernels.packed_cache
    ("packed_cache.pack_s", "s", "lower"),
    ("packed_cache.packs", "count", "lower"),
    ("packed_cache.extended_rows", "count", "higher"),
    ("packed_cache.repaired_rows", "count", "lower"),
    ("packed_cache.rebuilt_rows", "count", "lower"),
    ("packed_cache.extend_ratio", "ratio", "higher"),
    # kvcache.manager (functional and sim)
    ("manager.plan_restore_s", "s", "lower"),
    ("manager.commit_restore_s", "s", "lower"),
    ("manager.ensure_capacity_s", "s", "lower"),
    ("manager.swap_out_s", "s", "lower"),
    ("manager.swap_out_calls", "count", "lower"),
    ("manager.reclaim_s", "s", "lower"),
    ("manager.append_tokens_s", "s", "lower"),
    ("manager.close_s", "s", "lower"),
    ("manager.lookup_tokens", "count", "higher"),
    ("manager.gpu_hit_tokens", "count", "higher"),
    ("manager.cpu_hit_tokens", "count", "higher"),
    ("manager.recomputed_tokens", "count", "lower"),
    ("manager.swapped_out_tokens", "count", "lower"),
    ("manager.dropped_tokens", "count", "lower"),
    ("manager.gpu_hit_ratio", "ratio", "higher"),
    ("manager.cached_ratio", "ratio", "higher"),
    # kvcache.storage
    ("storage.write_s", "s", "lower"),
    ("storage.write_calls", "count", "lower"),
    ("storage.read_stacked_s", "s", "lower"),
    ("storage.write_stacked_s", "s", "lower"),
    ("storage.read_all_layers_s", "s", "lower"),
    ("storage.swap_in_bytes", "B", "lower"),
    ("storage.swap_out_bytes", "B", "lower"),
    ("cpu_store.put_many_s", "s", "lower"),
    ("cpu_store.pop_many_s", "s", "lower"),
    ("cpu_store.put_s", "s", "lower"),
    ("cpu_store.pop_s", "s", "lower"),
    ("cpu_store.calls", "count", "lower"),
    ("cpu_store.chunks_in", "count", "lower"),
    ("cpu_store.chunks_out", "count", "lower"),
    # kvcache.pages
    ("pool.peak_allocated_pages", "count", "lower"),
    ("pool.peak_occupancy", "ratio", "lower"),
    # sim.events
    ("loop.run_s", "s", "lower"),
    ("loop.events", "count", "lower"),
    ("loop.events_per_host_s", "1/s", "higher"),
    # core.engine / serving.engine
    ("engine.iterations", "count", "lower"),
    ("engine.suspensions", "count", "lower"),
    ("engine.host_us_per_iteration", "us", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.ttft_ms_p90", "ms", "lower"),
    ("engine.nlat_mean_ms_low", "ms", "lower"),
    ("engine.nlat_mean_ms_top", "ms", "lower"),
    ("engine.knee_bracketed", "count", "higher"),
    # gpu.costmodel, gpu.pcie
    ("costmodel.iteration_time_s", "s", "lower"),
    ("costmodel.iteration_time_calls", "count", "lower"),
    ("pcie.transfer_s", "s", "lower"),
    ("pcie.transfers", "count", "lower"),
    ("pcie.bytes", "B", "lower"),
    # serving.metrics, workload, the harness around run_serving_once
    ("metrics.complete_s", "s", "lower"),
    ("metrics.stats_s", "s", "lower"),
    ("workload.generate_s", "s", "lower"),
    ("sweep.self_s", "s", "lower"),
    # host / harness
    ("host.matmul_gflops", "GFLOP/s", "higher"),
    ("host.memcpy_gbps", "GB/s", "higher"),
    ("host.gather_gbps", "GB/s", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: span name -> the metric holding its self time.
SELF_TIME = {
    "server.chat_batch": "server.self_s",
    "model.forward.prefill": "model.self_s",
    "model.forward.decode": "model.self_s",
    "loop.run": "engine.self_s",
    "sweep.run_serving_once": "sweep.self_s",
    **{
        span: f"{span}_s"
        for span in (
            "backend.decode_attention",
            "backend.ragged_attention",
            "backend.multi_token_attention",
            "backend.batched_decode_attention",
            "packed_cache.pack",
            "manager.plan_restore",
            "manager.commit_restore",
            "manager.ensure_capacity",
            "manager.swap_out",
            "manager.reclaim",
            "manager.append_tokens",
            "manager.close",
            "storage.write",
            "storage.read_stacked",
            "storage.write_stacked",
            "storage.read_all_layers",
            "cpu_store.put_many",
            "cpu_store.pop_many",
            "cpu_store.put",
            "cpu_store.pop",
            "costmodel.iteration_time",
            "pcie.transfer",
            "metrics.complete",
            "metrics.stats",
        )
    },
}
#: span name -> the metric holding its call count.
CALLS = {
    "model.forward.prefill": "model.prefill_calls",
    "model.forward.decode": "model.decode_steps",
    "backend.decode_attention": "backend.decode_attention_calls",
    "backend.ragged_attention": "backend.ragged_attention_calls",
    "backend.multi_token_attention": "backend.multi_token_attention_calls",
    "backend.batched_decode_attention": "backend.batched_decode_attention_calls",
    "manager.swap_out": "manager.swap_out_calls",
    "storage.write": "storage.write_calls",
    "costmodel.iteration_time": "costmodel.iteration_time_calls",
    **{f"cpu_store.{m}": "cpu_store.calls" for m in ("put_many", "pop_many", "put", "pop")},
}
MANAGER_METHODS = (
    "plan_restore",
    "commit_restore",
    "ensure_capacity",
    "swap_out",
    "reclaim",
    "append_tokens",
    "close",
)
MANAGER_COUNTERS = (
    "lookup_tokens",
    "gpu_hit_tokens",
    "cpu_hit_tokens",
    "recomputed_tokens",
    "swapped_out_tokens",
    "dropped_tokens",
)


class PoolPeak:
    """Page-pool occupancy, sampled after every ``chat_batch`` call."""

    def __init__(self) -> None:
        self.pages = 0
        self.occupancy = 0.0

    def sample(self, pool) -> None:
        self.pages = max(self.pages, pool.num_allocated_pages)
        self.occupancy = max(self.occupancy, pool.num_allocated_pages / pool.num_pages)


def _instrument_manager(manager, tracer: Tracer, skip: Sequence[str] = ()) -> None:
    for method in MANAGER_METHODS:
        if method not in skip:
            tracer.wrap(manager, method, f"manager.{method}")


def instrument_server(server, tracer: Tracer) -> None:
    """Wrap the public methods of every layer under one server."""
    tracer.wrap(server, "chat_batch", "server.chat_batch")

    def forward_name(batch) -> str:
        prefill = any(r.num_new_tokens > 1 for r in batch)
        return "model.forward.prefill" if prefill else "model.forward.decode"

    def prefill_tokens(args, _result) -> int:
        tokens = sum(r.num_new_tokens for r in args[0])
        return tokens if tokens > len(args[0]) else 0

    def add(key: str, amount):
        def observe(counters, args, result) -> None:
            counters[key] += amount(args, result)

        return observe

    model = server.model
    tracer.wrap(model, "forward", forward_name, add("model.prefill_tokens", prefill_tokens))
    model.backend = Delegate(model.backend)
    for kernel in (
        "decode_attention",
        "ragged_attention",
        "multi_token_attention",
        "batched_decode_attention",
    ):
        tracer.wrap(model.backend, kernel, f"backend.{kernel}")
    tracer.wrap(model.decode_cache, "pack", "packed_cache.pack")
    _instrument_manager(server.manager, tracer)

    # Swap traffic in bytes, computed from the array shapes that cross.
    storage = server.storage
    token_bytes = 2 * storage.k[:, 0].nbytes

    def stacked_bytes(args, _result) -> int:
        return token_bytes * sum(len(group) for group in args[0])

    tracer.wrap(storage, "write", "storage.write")
    tracer.wrap(storage, "read_slots_stacked", "storage.read_stacked",
                add("storage.swap_out_bytes", stacked_bytes))
    tracer.wrap(storage, "write_slots_stacked", "storage.write_stacked",
                add("storage.swap_in_bytes", stacked_bytes))
    tracer.wrap(storage, "read_all_layers", "storage.read_all_layers",
                add("storage.swap_out_bytes", lambda args, _r: token_bytes * len(args[0])))

    store = server.cpu_store
    tracer.wrap(store, "put_many", "cpu_store.put_many",
                add("cpu_store.chunks_in", lambda args, _r: len(args[0])))
    tracer.wrap(store, "put", "cpu_store.put",
                add("cpu_store.chunks_in", lambda _a, _r: 1))
    tracer.wrap(store, "pop_many", "cpu_store.pop_many",
                add("cpu_store.chunks_out", lambda _a, result: len(result[0])))
    tracer.wrap(store, "pop", "cpu_store.pop",
                add("cpu_store.chunks_out", lambda _a, _r: 1))


def instrument_engine(engine, tracer: Tracer) -> None:
    """Wrap the public methods of every layer under one simulated engine."""
    tracer.wrap(engine.loop, "run", "loop.run")
    # The engine grows every decoding request by one token per iteration:
    # 770,000 ``append_tokens`` calls of about a microsecond per sweep.  A
    # span around each costs more than the call (22 % overhead measured),
    # so here its time stays in ``engine.self_s``.
    _instrument_manager(engine.manager, tracer, skip=("append_tokens",))
    tracer.wrap(engine.cost_model, "iteration_time", "costmodel.iteration_time")
    tracer.wrap(engine.pcie, "transfer", "pcie.transfer")
    tracer.wrap(engine.metrics, "complete", "metrics.complete")
    tracer.wrap(engine.metrics, "stats", "metrics.stats")


def percentile(values: Sequence[float], q: float) -> float:
    """``np.percentile`` as a float; 0 for a layer that recorded nothing."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def _from_spans(
    totals: Dict[str, Dict[str, float]],
    counters: Dict[str, float],
    traced_wall: float,
    overhead: float,
) -> Dict[str, float]:
    """Every declared metric at 0, then what the spans and counters say."""
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for span, entry in totals.items():
        out[SELF_TIME[span]] += entry["self_s"]
        if span in CALLS:
            out[CALLS[span]] += entry["calls"]
    for key, value in counters.items():
        out[key] += value
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_ratio"] = overhead
    return out


def _manager_counters(out: Dict[str, float], stats: Sequence[Dict[str, int]]) -> None:
    for key in MANAGER_COUNTERS:
        out[f"manager.{key}"] = float(sum(s[key] for s in stats))
    lookups = max(1.0, out["manager.lookup_tokens"])
    out["manager.gpu_hit_ratio"] = out["manager.gpu_hit_tokens"] / lookups
    out["manager.cached_ratio"] = (
        sum(sum(s[k] for s in stats) for k in ("gpu_hit_tokens", "cpu_hit_tokens", "disk_hit_tokens"))
        / lookups
    )


def chat_metrics(
    tracer: Tracer,
    server,
    pool_peak: PoolPeak,
    traced_wall: float,
    overhead: float,
) -> Dict[str, float]:
    totals = tracer.totals()
    out = _from_spans(totals, tracer.counters, traced_wall, overhead)
    for phase in ("prefill", "decode"):
        if f"model.forward.{phase}" in totals:
            out[f"model.{phase}_s"] = totals[f"model.forward.{phase}"]["total_s"]
    decode_ms = [
        tracer.duration(i) * 1e3 for i in tracer.named("model.forward.decode")
    ]
    out["model.decode_step_ms_p50"] = percentile(decode_ms, 50)

    # Request phases seen from the server boundary: restore ends where the
    # first forward starts, the first token is out when it returns, and
    # every later forward return is one more token for the whole batch.
    restore: List[float] = []
    ttft_ms: List[float] = []
    tbt_ms: List[float] = []
    start, end = tracer.start, tracer.end
    calls = tracer.children(tracer.named("server.chat_batch"))
    for call, children in calls.items():
        forwards = [
            i for i in children if tracer.name[i].startswith("model.forward")
        ]
        restore.append(start[forwards[0]] - start[call])
        ttft_ms.append((end[forwards[0]] - start[call]) * 1e3)
        tbt_ms += [(end[b] - end[a]) * 1e3 for a, b in zip(forwards, forwards[1:])]
    out["server.restore_s"] = sum(restore)
    out["server.ttft_ms_p50"] = percentile(ttft_ms, 50)
    out["server.ttft_ms_p90"] = percentile(ttft_ms, 90)
    out["server.tbt_ms_p50"] = percentile(tbt_ms, 50)

    cache = server.model.decode_cache.stats
    for key in ("packs", "extended_rows", "repaired_rows", "rebuilt_rows"):
        out[f"packed_cache.{key}"] = float(cache[key])
    outcomes = sum(
        cache[k] for k in ("extended_rows", "reused_rows", "repaired_rows", "rebuilt_rows")
    )
    out["packed_cache.extend_ratio"] = cache["extended_rows"] / max(1, outcomes)
    _manager_counters(out, [server.manager.stats])
    out["pool.peak_allocated_pages"] = float(pool_peak.pages)
    out["pool.peak_occupancy"] = pool_peak.occupancy
    return out


def sim_metrics(
    tracer: Tracer,
    engines: Sequence,
    points: Sequence,
    ttft_ms_p90: float,
    target: float,
    generate_s: float,
    traced_wall: float,
    overhead: float,
) -> Dict[str, float]:
    totals = tracer.totals()
    out = _from_spans(totals, tracer.counters, traced_wall, overhead)
    out["loop.run_s"] = totals["loop.run"]["total_s"]
    out["loop.events"] = float(sum(e.loop.dispatched for e in engines))
    out["loop.events_per_host_s"] = out["loop.events"] / out["loop.run_s"]
    out["engine.iterations"] = float(sum(e.iterations for e in engines))
    out["engine.suspensions"] = float(sum(e.suspensions for e in engines))
    out["engine.host_us_per_iteration"] = (
        out["loop.run_s"] / out["engine.iterations"] * 1e6
    )
    out["engine.ttft_ms_p90"] = ttft_ms_p90
    out["engine.nlat_mean_ms_low"] = points[0].mean_norm_latency * 1e3
    out["engine.nlat_mean_ms_top"] = points[-1].mean_norm_latency * 1e3
    out["engine.knee_bracketed"] = float(
        points[0].mean_norm_latency <= target < points[-1].mean_norm_latency
    )
    history = [record for e in engines for record in e.pcie.history]
    out["pcie.transfers"] = float(len(history))
    out["pcie.bytes"] = float(sum(record.num_bytes for record in history))
    out["workload.generate_s"] = generate_s
    _manager_counters(out, [e.manager.stats for e in engines])
    return out
