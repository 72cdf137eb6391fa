"""Tests for unified batched serving on the functional server."""

import numpy as np
import pytest

from repro.core import StatefulChatServer
from repro.faults import FaultPlan, FaultSite, RequestFaultedError
from repro.model import tiny_llama_config, tiny_opt_config
from repro.model.sampling import SamplingParams
from repro.obs import Tracer


def make_server(config, gpu=512, cpu=1024, seed=1, fault_plan=None):
    return StatefulChatServer(
        config, gpu_capacity_tokens=gpu, cpu_capacity_tokens=cpu,
        chunk_size=16, page_size=8, seed=seed, fault_plan=fault_plan,
    )


@pytest.fixture(params=["opt", "llama"])
def config(request):
    return tiny_opt_config() if request.param == "opt" else tiny_llama_config()


def random_round(rng, num_convs, lo=4, hi=12):
    return [
        (conv, list(rng.integers(4, 120, int(rng.integers(lo, hi)))))
        for conv in range(num_convs)
    ]


class TestBatchedEqualsSequential:
    def test_single_round(self, config):
        """One unified batch produces exactly what sequential serving
        produces (greedy decoding): batching is math-invisible."""
        rng = np.random.default_rng(51)
        prompts = random_round(rng, 4)
        batched = make_server(config).chat_batch(prompts, max_new_tokens=5)
        sequential_server = make_server(config)
        sequential = {
            conv: sequential_server.chat(conv, prompt_ids=ids, max_new_tokens=5)
            for conv, ids in prompts
        }
        assert batched == sequential

    def test_multi_round_with_returning_conversations(self, config):
        """Batches mixing fresh prefills with returning conversations
        (the §4.2 unified case) stay equivalent across rounds."""
        rng = np.random.default_rng(53)
        rounds = [random_round(rng, 3) for _ in range(3)]
        batch_server = make_server(config)
        seq_server = make_server(config)
        for prompts in rounds:
            batched = batch_server.chat_batch(prompts, max_new_tokens=4)
            sequential = {
                conv: seq_server.chat(conv, prompt_ids=ids, max_new_tokens=4)
                for conv, ids in prompts
            }
            assert batched == sequential

    def test_batched_under_memory_pressure(self, config):
        """Unified batching composes with eviction: serving one group's
        batch evicts the *other* group's cached contexts (batch members
        themselves are pinned), and a tight server still matches a roomy
        one token-for-token."""
        rng = np.random.default_rng(57)
        rounds = []
        for round_idx in range(6):
            group = (round_idx % 2) * 3  # alternate convs {0,1,2} / {3,4,5}
            rounds.append(
                [
                    (group + i, list(rng.integers(4, 120, int(rng.integers(4, 14)))))
                    for i in range(3)
                ]
            )
        tight = make_server(config, gpu=144, cpu=64)
        roomy = make_server(config, gpu=4096, cpu=8192)
        for prompts in rounds:
            assert tight.chat_batch(prompts, max_new_tokens=6) == roomy.chat_batch(
                prompts, max_new_tokens=6
            )
        stats = tight.manager.stats
        assert stats["swapped_out_tokens"] > 0
        assert stats["dropped_tokens"] > 0
        assert stats["recomputed_tokens"] > 0


class TestBatchSemantics:
    def test_contexts_accumulate(self, config):
        server = make_server(config)
        out = server.chat_batch([(0, [1, 2, 3]), (1, [4, 5])], max_new_tokens=3)
        assert server.context_length(0) == 3 + 3
        assert server.context_length(1) == 2 + 3
        assert server.raw_tokens[0] == [1, 2, 3] + out[0]

    def test_duplicate_conversations_rejected(self, config):
        server = make_server(config)
        with pytest.raises(ValueError, match="duplicate"):
            server.chat_batch([(0, [1]), (0, [2])])

    def test_empty_prompt_rejected(self, config):
        server = make_server(config)
        with pytest.raises(ValueError, match="empty"):
            server.chat_batch([(0, [])])

    def test_reserved_id_rejected(self, config):
        server = make_server(config)
        with pytest.raises(ValueError, match="reserved"):
            server.chat_batch([(server.SYSTEM_CONV_ID, [1, 2])])

    def test_with_system_prompt(self, config):
        shared = make_server(config)
        shared.set_system_prompt(prompt_ids=[9, 8, 7, 6])
        baseline = make_server(config)
        rng = np.random.default_rng(59)
        prompts = random_round(rng, 3)
        out_shared = shared.chat_batch(prompts, max_new_tokens=3)
        out_base = baseline.chat_batch(
            [(conv, [9, 8, 7, 6] + ids) for conv, ids in prompts],
            max_new_tokens=3,
        )
        assert out_shared == out_base

    def test_stochastic_batch_is_deterministic_per_seed(self, config):
        rng = np.random.default_rng(61)
        prompts = random_round(rng, 3)
        params = SamplingParams(temperature=0.9, top_k=16)
        a = make_server(config, seed=2).chat_batch(
            prompts, max_new_tokens=4, sampling=params
        )
        b = make_server(config, seed=2).chat_batch(
            prompts, max_new_tokens=4, sampling=params
        )
        assert a == b

    @pytest.mark.parametrize("max_new_tokens", [0, -1])
    def test_nonpositive_max_new_tokens_rejected(self, config, max_new_tokens):
        """Zero used to return one token whose KV row was never written."""
        server = make_server(config)
        with pytest.raises(ValueError, match="max_new_tokens"):
            server.chat_batch([(0, [1, 2])], max_new_tokens=max_new_tokens)
        with pytest.raises(ValueError, match="max_new_tokens"):
            server.chat(1, prompt_ids=[1, 2], max_new_tokens=max_new_tokens)


def _trace_record(tracer):
    """Everything a tracer recorded except wall-clock stamps."""
    return (
        [(s.id, s.name, s.parent, s.t0, s.t1, s.attrs) for s in tracer.spans],
        [(name, t, parent, attrs) for name, t, _, parent, attrs in tracer.instants],
        tracer.counters,
    )


class TestBatchOfOne:
    """``chat(c, p)`` is ``chat_batch([(c, p)])[c]``: the same tokens, the
    same cache statistics, the same fault accounting and the same trace,
    so the single-turn entry point can never become a second path again."""

    @pytest.mark.parametrize("system_prompt", [False, True])
    @pytest.mark.parametrize(
        "sampling",
        [SamplingParams(), SamplingParams(temperature=0.9, top_k=16)],
        ids=["greedy", "top_k"],
    )
    def test_chat_equals_single_element_batch(self, config, system_prompt, sampling):
        single, batched = (
            StatefulChatServer(
                config, gpu_capacity_tokens=96, cpu_capacity_tokens=64,
                chunk_size=16, page_size=8, seed=3, tracer=Tracer(),
            )
            for _ in range(2)
        )
        if system_prompt:
            for server in (single, batched):
                server.set_system_prompt(prompt_ids=[9, 8, 7, 6, 5])
        rng = np.random.default_rng(67)
        for turn in range(12):
            conv = turn % 4  # rotating conversations evict one another
            ids = [int(t) for t in rng.integers(4, 120, int(rng.integers(4, 14)))]
            a = single.chat(conv, prompt_ids=ids, max_new_tokens=5, sampling=sampling)
            b = batched.chat_batch([(conv, ids)], max_new_tokens=5, sampling=sampling)
            assert a == b[conv]
        stats = single.manager.stats
        assert stats["swapped_out_tokens"] > 0 and stats["recomputed_tokens"] > 0
        assert stats == batched.manager.stats
        assert single.fault_counters == batched.fault_counters
        assert _trace_record(single.tracer) == _trace_record(batched.tracer)

    def test_chat_raises_the_error_the_batch_recorded(self, config):
        """A terminal ``GPU_ALLOC`` fault (four scheduled failures in a
        row outlive the three retries) fails the turn: ``chat`` raises the
        very error object the shared path appended to ``failures``."""
        single, batched = (
            make_server(
                config,
                fault_plan=FaultPlan(schedules={FaultSite.GPU_ALLOC: [0, 1, 2, 3]}),
            )
            for _ in range(2)
        )
        with pytest.raises(RequestFaultedError) as raised:
            single.chat(0, prompt_ids=[1, 2, 3], max_new_tokens=3)
        assert raised.value is single.failures[-1]
        assert batched.chat_batch([(0, [1, 2, 3])], max_new_tokens=3) == {}
        (error,) = batched.failures
        assert (error.conv_id, error.site, error.attempts) == (
            raised.value.conv_id, raised.value.site, raised.value.attempts,
        )
        assert single.fault_counters == batched.fault_counters
        # The fault plan is spent: both servers serve the next turn alike.
        assert single.chat(0, prompt_ids=[1, 2, 3], max_new_tokens=3) == (
            batched.chat_batch([(0, [1, 2, 3])], max_new_tokens=3)[0]
        )


class TestBatchRequestSpans:
    def test_one_request_span_per_conversation(self, config):
        """Every conversation of a batch gets its own ``request`` span
        with one ``prefill`` and one ``decode`` child, closed with an
        outcome; the finished counter counts conversations, not calls."""
        tracer = Tracer()
        server = StatefulChatServer(
            config, gpu_capacity_tokens=512, cpu_capacity_tokens=512,
            chunk_size=16, page_size=8, seed=1, tracer=tracer,
        )
        prompts = random_round(np.random.default_rng(71), 4)
        out = server.chat_batch(prompts, max_new_tokens=3)
        requests = tracer.spans_named("request")
        assert [s.attrs["conv_id"] for s in requests] == [c for c, _ in prompts]
        for span, (conv, ids) in zip(requests, prompts):
            assert span.attrs["outcome"] == "finished"
            assert span.attrs["prompt_tokens"] == len(ids)
            assert span.attrs["output_tokens"] == len(out[conv]) == 3
            children = [s for s in tracer.spans if s.parent == span.id]
            assert sorted(s.name for s in children) == ["decode", "prefill"]
            assert all(s.t1 is not None for s in children)
        assert tracer.counter("requests.finished") == len(prompts)
        assert tracer.counter("requests.failed") == 0

    def test_failed_member_closes_its_span_and_spares_the_rest(self, config):
        tracer = Tracer()
        plan = FaultPlan(schedules={FaultSite.GPU_ALLOC: [0, 1, 2, 3]})
        server = make_server(config, fault_plan=plan)
        server.set_tracer(tracer)
        out = server.chat_batch([(0, [1, 2, 3]), (1, [4, 5, 6])], max_new_tokens=2)
        assert sorted(out) == [1]
        outcomes = {
            s.attrs["conv_id"]: s.attrs["outcome"]
            for s in tracer.spans_named("request")
        }
        assert outcomes == {0: "failed", 1: "finished"}
        assert tracer.counter("requests.failed") == 1
        assert tracer.counter("requests.finished") == 1
