"""Pipeline instrumentation tests: spans from real runs, counter
reconciliation against the cost/transfer models, and the no-perturbation
guarantee of running with no tracer."""

import json

import pytest

from repro.core.engine import PensieveEngine
from repro.core.server import StatefulChatServer
from repro.experiments.common import run_serving_once
from repro.gpu.link import Direction
from repro.obs import Tracer, write_trace_artifacts

from tests.serving.conftest import TINY, scripted_conversation, spec_with_capacity


def _workload(n_convs: int = 6):
    """Multi-turn conversations sized to overflow a 256-token GPU tier."""
    return [
        scripted_conversation(
            i,
            [(24, 12), (16, 12)],
            start=0.05 * i,
            think=0.2,
        )
        for i in range(n_convs)
    ]


def _factory(tracer_capacity: int = 256):
    spec = spec_with_capacity(tracer_capacity)
    return lambda loop: PensieveEngine(
        loop, TINY, spec, chunk_size=16, policy="lru"
    )


def _run(tracer=None):
    return run_serving_once(
        _factory(), _workload(), until=40.0, warmup=0.0, tracer=tracer
    )


class TestEngineSpans:
    def test_request_spans_cover_lifecycle(self):
        tracer = Tracer()
        engine, stats = _run(tracer)
        requests = tracer.spans_named("request")
        assert len(requests) == stats.num_requests + stats.num_failed or requests
        finished = [s for s in requests if s.attrs.get("outcome") == "finished"]
        assert finished, "expected finished request spans"
        for span in finished:
            assert span.t1 is not None and span.t1 >= span.t0
            assert "conv_id" in span.attrs and "output_tokens" in span.attrs
        # iterations carry prefill/decode children
        iterations = tracer.spans_named("iteration")
        assert iterations
        children = {s.parent for s in tracer.spans if s.name in ("prefill", "decode")}
        assert children & {s.id for s in iterations}

    def test_swap_and_evict_events_under_pressure(self):
        tracer = Tracer()
        engine, _ = _run(tracer)
        assert engine.manager.stats["swapped_out_tokens"] > 0, (
            "workload must pressure the cache for this test to be meaningful"
        )
        assert tracer.spans_named("swap_out")
        evicts = [i for i in tracer.instants if i[0] == "evict"]
        assert evicts
        for _name, _t, _wall, attrs in evicts:
            assert "tokens" in attrs and "conv_id" in attrs

    def test_kv_pool_gauges_sampled(self):
        tracer = Tracer()
        _run(tracer)
        gauge_names = {g[0] for g in tracer.gauge_samples}
        assert {
            "kv.gpu_resident_tokens",
            "kv.gpu_free_tokens",
            "kv.reclaimable_tokens",
            "kv.evictable_tokens",
            "kv.cpu_used_tokens",
            "kv.fragmentation_tokens",
            "batch.size",
            "queue.waiting",
        } <= gauge_names

    def test_determinism_on_primary_clock(self):
        def key(tracer):
            return (
                [(s.id, s.name, s.parent, s.t0, s.t1, s.attrs) for s in tracer.spans],
                [(n, t, a) for n, t, _w, a in tracer.instants],
                tracer.counters,
                [(n, t, v) for n, t, _w, v in tracer.gauge_samples],
            )

        a, b = Tracer(), Tracer()
        _run(a)
        _run(b)
        assert key(a) == key(b)


class TestReconciliation:
    def test_pcie_byte_counters_match_transfer_model(self):
        tracer = Tracer()
        engine, _ = _run(tracer)
        assert tracer.counter("pcie.h2d_bytes") == pytest.approx(
            engine.pcie.bytes_moved[Direction.H2D]
        )
        assert tracer.counter("pcie.d2h_bytes") == pytest.approx(
            engine.pcie.bytes_moved[Direction.D2H]
        )
        assert engine.pcie.bytes_moved[Direction.D2H] > 0

    def test_cache_counters_mirror_manager_stats(self):
        tracer = Tracer()
        engine, _ = _run(tracer)
        for key in (
            "swapped_out_tokens",
            "dropped_tokens",
            "gpu_hit_tokens",
            "lookup_tokens",
            "recomputed_tokens",
        ):
            assert tracer.counter(f"cache.{key}") == engine.manager.stats[key]

    def test_finished_counter_matches_stats(self):
        tracer = Tracer()
        _engine, stats = _run(tracer)
        assert tracer.counter("requests.finished") == stats.num_requests


class TestNoPerturbation:
    def test_traced_run_equals_untraced_run(self):
        """Tracing must observe, never perturb: all user-visible outputs
        of a traced run are identical to the untraced run."""
        engine_a, stats_a = _run(tracer=None)
        engine_b, stats_b = _run(tracer=Tracer())
        assert stats_a.as_dict() == stats_b.as_dict()
        assert engine_a.manager.stats == engine_b.manager.stats
        assert (
            engine_a.pcie.bytes_moved[Direction.H2D]
            == engine_b.pcie.bytes_moved[Direction.H2D]
        )
        assert (
            engine_a.pcie.bytes_moved[Direction.D2H]
            == engine_b.pcie.bytes_moved[Direction.D2H]
        )
        assert engine_a.suspensions == engine_b.suspensions

    def test_functional_server_output_unchanged_under_tracing(self):
        def outputs(tracer):
            server = StatefulChatServer(
                gpu_capacity_tokens=128,
                cpu_capacity_tokens=256,
                chunk_size=16,
                page_size=8,
                seed=3,
            )
            if tracer is not None:
                server.set_tracer(tracer)
            out = []
            for turn in range(2):
                for conv in range(3):
                    out.append(
                        (conv, server.chat(conv, prompt_ids=[5, 6, 7, 8],
                                           max_new_tokens=6))
                    )
            return out

        assert outputs(None) == outputs(Tracer())


class TestFunctionalServerSpans:
    def test_chat_emits_request_prefill_decode(self):
        tracer = Tracer()
        server = StatefulChatServer(
            gpu_capacity_tokens=128,
            cpu_capacity_tokens=256,
            chunk_size=16,
            page_size=8,
        )
        server.set_tracer(tracer)
        server.chat(1, prompt_ids=[3, 4, 5], max_new_tokens=4)
        names = {s.name for s in tracer.spans}
        assert {"request", "prefill", "decode"} <= names
        request = tracer.spans_named("request")[0]
        assert request.attrs["outcome"] == "finished"
        children = {s.name for s in tracer.spans if s.parent == request.id}
        assert {"prefill", "decode"} <= children
        assert tracer.counter("requests.finished") == 1

    def test_cpu_store_counters_under_eviction(self):
        tracer = Tracer()
        server = StatefulChatServer(
            gpu_capacity_tokens=64,
            cpu_capacity_tokens=512,
            chunk_size=16,
            page_size=8,
        )
        server.set_tracer(tracer)
        for conv in range(4):
            server.chat(conv, prompt_ids=list(range(2, 20)), max_new_tokens=8)
        assert tracer.counter("cpu_store.put_chunks") > 0
        assert tracer.counter("cpu_store.put_bytes") > 0


class TestArtifactsFromRealRun:
    def test_trace_artifacts_validate(self, tmp_path):
        tracer = Tracer()
        engine, _ = _run(tracer)
        paths = write_trace_artifacts(tracer, str(tmp_path))
        document = json.loads((tmp_path / "trace.chrome.json").read_text())
        events = document["traceEvents"]
        span_names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"prefill", "decode", "swap_out", "request"} <= span_names
        for event in events:
            assert "ph" in event and "ts" in event and "pid" in event
        # JSONL counter records reconcile with the transfer model
        counters = {
            r["name"]: r["total"]
            for r in map(json.loads, (tmp_path / "trace.jsonl").read_text().splitlines())
            if r.get("type") == "counter"
        }
        assert counters["pcie.d2h_bytes"] == pytest.approx(
            engine.pcie.bytes_moved[Direction.D2H]
        )
        assert counters["cache.swapped_out_tokens"] == (
            engine.manager.stats["swapped_out_tokens"]
        )
        assert set(paths) == {"jsonl", "chrome", "report"}
