"""Tests for unified batched serving on the functional server."""

import numpy as np
import pytest

from repro.core import StatefulChatServer
from repro.faults import FaultPlan, FaultSite, RequestFaultedError
from repro.kernels import PackedDecodeCache
from repro.model import tiny_llama_config, tiny_opt_config
from repro.obs import Tracer


def make_server(config, gpu=512, cpu=1024, seed=1, fault_plan=None):
    return StatefulChatServer(
        config, gpu_capacity_tokens=gpu, cpu_capacity_tokens=cpu,
        chunk_size=16, page_size=8, seed=seed, fault_plan=fault_plan,
    )


def traced(server, tracer=None):
    """``server`` with a recording tracer attached."""
    server.set_tracer(tracer if tracer is not None else Tracer())
    return server


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

    @pytest.mark.parametrize("max_new_tokens", [0, -1])
    def test_nonpositive_max_new_tokens_rejected(self, config, max_new_tokens):
        """Zero used to return one token whose KV row was never written."""
        server = make_server(config)
        with pytest.raises(ValueError, match="max_new_tokens"):
            server.chat_batch([(0, [1, 2])], max_new_tokens=max_new_tokens)
        with pytest.raises(ValueError, match="max_new_tokens"):
            server.chat(1, prompt_ids=[1, 2], max_new_tokens=max_new_tokens)

    @pytest.mark.parametrize(
        "rejected, max_new_tokens",
        [
            ([(0, [])], 2),
            ([(0, [1]), (0, [2])], 2),
            ([(StatefulChatServer.SYSTEM_CONV_ID, [1, 2])], 2),
            ([(0, [1, 2])], 0),
            # 5 cached + 506 + 2 positions: one past ``max_position``.
            ([(0, [1] * 506)], 2),
        ],
        ids=["empty", "duplicate", "reserved", "max_new_tokens", "max_position"],
    )
    def test_rejected_call_leaves_the_clock_alone(
        self, config, rejected, max_new_tokens
    ):
        """A call that fails validation serves nothing, so it must not
        advance the server clock: every later turn's ``now`` (and with it
        a retention scorer's T) is what it would be without the call."""
        clean, probed = (traced(make_server(config)) for _ in range(2))
        for server in (clean, probed):
            server.chat_batch([(0, [5, 6, 7])], max_new_tokens=2)
        with pytest.raises(ValueError):
            probed.chat_batch(rejected, max_new_tokens=max_new_tokens)
        for server in (clean, probed):
            server.chat_batch([(0, [8, 9]), (1, [3, 4])], max_new_tokens=2)
        assert _trace_record(clean.tracer) == _trace_record(probed.tracer)
        for conv in (0, 1):
            assert (
                clean.manager.conversation(conv).last_active
                == probed.manager.conversation(conv).last_active
            )


def _trace_record(tracer):
    """Everything a tracer recorded except wall-clock stamps."""
    return (
        [(s.id, s.name, s.parent, s.t0, s.t1, s.attrs) for s in tracer.spans],
        [(name, t, attrs) for name, t, _, attrs in tracer.instants],
        tracer.counters,
    )


class TestBatchOfOne:
    """``chat(c, p)`` is ``chat_batch([(c, p)])[c]``: the same tokens, the
    same cache statistics, the same fault accounting and the same trace,
    so the single-turn entry point can never become a second path again."""

    @pytest.mark.parametrize("system_prompt", [False, True])
    def test_chat_equals_single_element_batch(self, config, system_prompt):
        single, batched = (
            traced(make_server(config, gpu=96, cpu=64, seed=3))
            for _ in range(2)
        )
        if system_prompt:
            for server in (single, batched):
                server.set_system_prompt(prompt_ids=[9, 8, 7, 6, 5])
        rng = np.random.default_rng(67)
        for turn in range(12):
            conv = turn % 4  # rotating conversations evict one another
            ids = [int(t) for t in rng.integers(4, 120, int(rng.integers(4, 14)))]
            a = single.chat(conv, prompt_ids=ids, max_new_tokens=5)
            b = batched.chat_batch([(conv, ids)], max_new_tokens=5)
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
        server = traced(make_server(config, cpu=512), tracer)
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


class TestTurnThatCannotFit:
    """A 64-token GPU tier: the turn that cannot fit fails alone, with a
    structured error, and leaves nothing pinned (it used to raise
    ``CacheCapacityError`` out of ``chat_batch`` and wedge the server)."""

    @staticmethod
    def _small(config):
        return make_server(config, gpu=64, cpu=256)

    @staticmethod
    def _pinned(server, conv_ids):
        return [
            c for c in conv_ids
            if server.manager.conversation(c) is not None
            and server.manager.conversation(c).pinned
        ]

    def test_decode_growth_aborts_the_latest_joined_member(self, config):
        server = self._small(config)
        first, second = list(range(1, 25)), list(range(30, 54))
        out = server.chat_batch([(0, first), (1, second)], max_new_tokens=20)
        assert sorted(out) == [0]
        (error,) = server.failures
        assert (error.conv_id, error.site) == (1, FaultSite.GPU_ALLOC)
        assert self._pinned(server, [0, 1]) == []
        # The sibling's tokens are the ones it gets served alone.
        assert out[0] == make_server(config).chat(0, prompt_ids=first, max_new_tokens=20)
        # The server still serves.
        assert len(server.chat(2, prompt_ids=[5, 6, 7], max_new_tokens=3)) == 3
        server.manager._audit()

    def test_oversized_prompt_fails_alone_before_its_restore(self, config):
        server = self._small(config)
        out = server.chat_batch(
            [(0, list(range(1, 9))), (1, list(range(10, 80)))], max_new_tokens=4
        )
        assert sorted(out) == [0]
        assert [f.conv_id for f in server.failures] == [1]
        assert self._pinned(server, [0, 1]) == []
        # Conversation 0's cached context is exactly its recorded tokens.
        assert server.context_length(0) == len(server.raw_tokens[0]) == 12
        with pytest.raises(RequestFaultedError) as raised:
            server.chat(1, prompt_ids=list(range(10, 80)), max_new_tokens=2)
        assert raised.value is server.failures[-1]
        server.manager._audit()


class TestPackedDecodeState:
    """On every decode step the server's packed slot table and lengths
    are exactly a fresh pack of that step's sources, whatever happened
    to the rows between steps."""

    def test_every_pack_equals_a_fresh_pack(self, config):
        server = make_server(config, gpu=96, cpu=512)
        server.set_system_prompt(prompt_ids=[9, 8, 7, 6, 5])
        cache = server.model.decode_cache
        pack = cache.pack
        checked = []

        def checked_pack(sources):
            batch = pack(sources)
            table, lengths = PackedDecodeCache.pack_from_scratch(sources)
            np.testing.assert_array_equal(np.asarray(batch.table), table)
            np.testing.assert_array_equal(np.asarray(batch.lengths), lengths)
            checked.append(len(sources))
            return batch

        cache.pack = checked_pack

        script = [  # (conversations in row order, prompt tokens, new tokens)
            ([0, 1, 2], 6, 4),
            ([1, 0], 5, 3),  # 0 and 1 swap rows ...
            ([0, 1], 5, 3),  # ... and return to the rows they left
            ([3], 40, 4),  # swaps the others' leading chunks out
            ([0, 2], 5, 3),  # restores them
            ([4, 5], 30, 30),  # decode growth aborts 5, the latest joined
        ]
        turns = 0
        for turn, (convs, n, new) in enumerate(script):
            prompts = [
                (c, [(13 * c + 7 * turn + 3 * i) % 120 + 4 for i in range(n)])
                for c in convs
            ]
            out = server.chat_batch(prompts, new)
            turns += len(convs)
        assert sorted(out) == [4]
        (error,) = server.failures
        assert (error.conv_id, error.site) == (5, FaultSite.GPU_ALLOC)
        stats = server.manager.stats
        assert stats["swapped_out_tokens"] > 0 and stats["cpu_hit_tokens"] > 0
        assert cache.stats["packs"] == len(checked)
        # Each turn's row is rebuilt once, from the source built after its
        # prefill, and extended by one slot on every later step.
        assert cache.stats["rebuilt_rows"] == turns
        assert cache.stats["extended_rows"] == sum(checked) - turns
        assert cache.stats["repaired_rows"] == cache.stats["reused_rows"] == 0
