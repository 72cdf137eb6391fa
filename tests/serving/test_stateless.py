"""Tests for the stateless (vLLM / TensorRT-LLM) baseline engines."""

import pytest

from repro.experiments.common import run_serving_once
from repro.obs import Tracer
from repro.serving import BatchConfig, RequestState, make_tensorrt_llm, make_vllm
from repro.serving.stateless import StatelessEngine
from repro.sim import EventLoop

from tests.serving.conftest import TINY, scripted_conversation, serve, spec_with_capacity


def vllm_factory(capacity_tokens=4096, batch_config=None):
    spec = spec_with_capacity(capacity_tokens)
    return lambda loop: make_vllm(loop, TINY, spec, batch_config)


class TestBasicServing:
    def test_single_request_completes(self):
        engine, driver, loop = serve(
            vllm_factory(), [scripted_conversation(0, [(8, 5)])]
        )
        assert len(engine.metrics) == 1
        record = engine.metrics.records[0]
        assert record.output_tokens == 5
        assert record.finish_time > record.first_token_time > 0
        assert driver.outstanding == 0

    def test_all_turns_complete_in_order(self):
        engine, driver, _ = serve(
            vllm_factory(), [scripted_conversation(0, [(8, 5), (4, 6), (3, 2)])]
        )
        records = engine.metrics.records
        assert [r.turn_index for r in records] == [0, 1, 2]
        # Causality: each turn arrives only after the previous finished.
        assert records[1].arrival_time >= records[0].finish_time
        assert records[2].arrival_time >= records[1].finish_time

    def test_stateless_reprefills_history(self):
        """The defining baseline behaviour (§2.2): every turn re-processes
        the cumulative history."""
        engine, _, _ = serve(
            vllm_factory(), [scripted_conversation(0, [(10, 10), (5, 5)])]
        )
        first, second = engine.metrics.records
        assert first.prefilled_tokens == 10
        # Turn 2 prefill = history (10 + 10) + new prompt (5).
        assert second.prefilled_tokens == 25

    def test_fcfs_admission(self):
        convs = [
            scripted_conversation(i, [(8, 4)], start=float(i) * 0.001)
            for i in range(5)
        ]
        engine, _, _ = serve(vllm_factory(), convs)
        finish_order = [r.conv_id for r in engine.metrics.records]
        assert finish_order == [0, 1, 2, 3, 4]

    def test_concurrent_conversations_batched(self):
        convs = [scripted_conversation(i, [(8, 50)]) for i in range(4)]
        engine, _, _ = serve(vllm_factory(), convs)
        # 4 requests x 50 tokens decoded in far fewer than 200 iterations
        # means decode steps were shared.
        assert engine.iterations < 4 * 50 + 10
        assert len(engine.metrics) == 4


class TestMemoryManagement:
    def test_memory_released_on_finish(self):
        engine, _, _ = serve(vllm_factory(64), [scripted_conversation(0, [(8, 4)])])
        assert engine.used_tokens == 0

    def test_admission_blocked_until_memory_available(self):
        """Two requests that cannot fit together serialize."""
        convs = [
            scripted_conversation(0, [(40, 10)]),
            scripted_conversation(1, [(40, 10)]),
        ]
        engine, _, _ = serve(vllm_factory(64), convs)
        assert len(engine.metrics) == 2
        r0, r1 = engine.metrics.records
        # The second could only start after the first released its slots.
        assert r1.first_token_time > r0.finish_time

    def test_preemption_recovers_and_recomputes(self):
        """Decode outgrowing memory preempts the youngest request, which
        later re-prefills its full sequence (recompute preemption)."""
        convs = [
            scripted_conversation(0, [(20, 40)], start=0.0),
            scripted_conversation(1, [(20, 40)], start=0.01),
        ]
        tracer = Tracer()
        engine, _ = run_serving_once(vllm_factory(96), convs, tracer=tracer)
        assert len(engine.metrics) == 2
        assert any(
            name == "suspend" and attrs["kind"] == "preempt"
            for name, *_, attrs in tracer.instants
        )
        # The preempted request's re-prefill covered generated tokens too.
        victim = engine.metrics.records[-1]
        assert victim.prefilled_tokens > 20

    def test_capacity_is_never_exceeded(self):
        convs = [scripted_conversation(i, [(10, 30)]) for i in range(6)]
        spec = spec_with_capacity(128)
        loop = EventLoop()
        engine = make_vllm(loop, TINY, spec)
        orig = engine._execute
        peaks = []

        def checked(batch, now):
            peaks.append(engine.used_tokens)
            assert engine.used_tokens <= engine.gpu_capacity_tokens
            return orig(batch, now)

        engine._execute = checked
        from repro.workload import ConversationDriver

        ConversationDriver(loop, engine, convs).run(max_events=1_000_000)
        assert peaks and max(peaks) <= 128


class TestPhaseSeparation:
    def test_batches_are_single_phase(self):
        """vLLM never mixes prefill and decode in one iteration (§4.2)."""
        convs = [
            scripted_conversation(0, [(8, 30)], start=0.0),
            scripted_conversation(1, [(8, 30)], start=0.05),
        ]
        spec = spec_with_capacity(4096)
        loop = EventLoop()
        engine = make_vllm(loop, TINY, spec)
        phases = []
        orig = engine._execute

        def spy(batch, now):
            phases.append(
                {("prefill" if not r.prefill_done else "decode") for r in batch}
            )
            return orig(batch, now)

        engine._execute = spy
        from repro.workload import ConversationDriver

        ConversationDriver(loop, engine, convs).run(max_events=1_000_000)
        assert all(len(p) == 1 for p in phases)
        assert {"prefill"} in phases and {"decode"} in phases


class TestTensorRT:
    def test_trt_is_faster_than_vllm(self):
        convs = [scripted_conversation(i, [(16, 20)]) for i in range(4)]
        vllm, _, _ = serve(vllm_factory(), convs)
        spec = spec_with_capacity(4096)
        trt, _, _ = serve(lambda l: make_tensorrt_llm(l, TINY, spec), convs)
        v_stats = vllm.metrics.stats()
        t_stats = trt.metrics.stats()
        assert t_stats.mean_normalized_latency < v_stats.mean_normalized_latency

    def test_names(self):
        loop = EventLoop()
        spec = spec_with_capacity(64)
        assert make_vllm(loop, TINY, spec).name == "vLLM"
        assert make_tensorrt_llm(loop, TINY, spec).name == "TensorRT-LLM"
