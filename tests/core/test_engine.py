"""Tests for the Pensieve serving engine (simulation layer)."""

import gc
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro.core import PensieveEngine
from repro.experiments.common import run_serving_once
from repro.gpu.device import A100_80GB
from repro.gpu.link import Direction
from repro.kvcache import ChunkLocation
from repro.model.config import OPT_13B
from repro.obs import FlightRecorder, HistogramSet, SloConfig, Tracer
from repro.serving import BatchConfig, make_vllm
from repro.sim import EventLoop
from repro.workload import ConversationDriver

from tests.serving.conftest import TINY, scripted_conversation, serve, spec_with_capacity
from tests.test_run_digests import _mixed_conversations


def pensieve_factory(capacity_tokens=4096, cpu_tokens=None, **kwargs):
    spec = spec_with_capacity(capacity_tokens)
    if cpu_tokens is not None:
        kwargs["cpu_cache_tokens"] = cpu_tokens
    return lambda loop: PensieveEngine(loop, TINY, spec, **kwargs)


class TestBasicServing:
    def test_single_conversation_completes(self):
        engine, driver, _ = serve(
            pensieve_factory(), [scripted_conversation(0, [(8, 5), (4, 6)])]
        )
        assert len(engine.metrics) == 2
        assert driver.outstanding == 0

    def test_default_name_variants(self):
        loop = EventLoop()
        spec = spec_with_capacity(64)
        assert PensieveEngine(loop, TINY, spec).name == "Pensieve"
        assert (
            PensieveEngine(EventLoop(), TINY, spec, cpu_cache_tokens=0).name
            == "Pensieve (GPU cache)"
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            PensieveEngine(EventLoop(), TINY, spec_with_capacity(64), policy="fifo")

    def test_lru_policy_accepted(self):
        engine, _, _ = serve(
            pensieve_factory(policy="lru"), [scripted_conversation(0, [(8, 4)])]
        )
        assert len(engine.metrics) == 1


class TestStatefulness:
    def test_followup_turn_reuses_cached_context(self):
        """The headline behaviour: turn 2 prefills only its new prompt."""
        engine, _, _ = serve(
            pensieve_factory(), [scripted_conversation(0, [(10, 10), (5, 5)])]
        )
        first, second = engine.metrics.records
        assert first.prefilled_tokens == 10
        assert second.prefilled_tokens == 5  # no history recompute

    def test_cached_context_matches_full_history(self):
        engine, _, _ = serve(
            pensieve_factory(), [scripted_conversation(0, [(10, 10), (5, 5)])]
        )
        cache = engine.manager.conversation(0)
        # 10 + 10 + 5 + 5 tokens, including the final output token.
        assert cache.total_tokens == 30
        assert not cache.pinned

    def test_pensieve_beats_stateless_on_multi_turn(self):
        convs = [
            scripted_conversation(i, [(16, 30), (8, 30), (8, 30)])
            for i in range(4)
        ]
        pensieve, _, _ = serve(pensieve_factory(), convs)
        spec = spec_with_capacity(4096)
        vllm, _, _ = serve(lambda l: make_vllm(l, TINY, spec), convs)
        p = pensieve.metrics.stats()
        v = vllm.metrics.stats()
        assert p.mean_normalized_latency < v.mean_normalized_latency
        assert p.total_prefilled_tokens < v.total_prefilled_tokens


class TestUnifiedBatching:
    def test_mixed_phase_batches_occur(self):
        convs = [
            scripted_conversation(0, [(8, 40)], start=0.0),
            scripted_conversation(1, [(8, 40)], start=0.05),
        ]
        loop = EventLoop()
        engine = pensieve_factory()(loop)
        phases = []
        orig = engine._execute

        def spy(batch, now):
            phases.append(
                {("prefill" if not r.prefill_done else "decode") for r in batch}
            )
            return orig(batch, now)

        engine._execute = spy
        ConversationDriver(loop, engine, convs).run(max_events=1_000_000)
        assert {"prefill", "decode"} in phases  # unified batch observed

    def test_separate_mode_never_mixes(self):
        convs = [
            scripted_conversation(0, [(8, 40)], start=0.0),
            scripted_conversation(1, [(8, 40)], start=0.05),
        ]
        loop = EventLoop()
        engine = pensieve_factory(unified=False)(loop)
        phases = []
        orig = engine._execute

        def spy(batch, now):
            phases.append(
                {("prefill" if not r.prefill_done else "decode") for r in batch}
            )
            return orig(batch, now)

        engine._execute = spy
        ConversationDriver(loop, engine, convs).run(max_events=1_000_000)
        assert all(len(p) == 1 for p in phases)


#: Each knob ``benchmarks/test_ablations.py`` and the Figure 13 ablation
#: turn, set away from its default, by id (``unified`` is the default run).
ABLATIONS = {
    "unified": {},
    "separate": {"unified": False},
    "chunk-8": {"chunk_size": 8},
    "chunk-128": {"chunk_size": 128},
    "swap-threshold-0": {"batch_config": BatchConfig(swap_out_threshold=0.0)},
    "reserve-0.25": {"batch_config": BatchConfig(generation_reserve=0.25)},
    "blocking-swap-in": {"pipelined_swap_in": False},
    "retrieval-not-first": {"prioritize_retrieval": False},
    "whole-conversation": {"whole_conversation_eviction": True},
}


class TestKvLedger:
    """The engine caches exactly the tokens its iterations produced: when
    a turn finishes, its conversation's cached context is the history,
    the prompt and the output tokens.  ``_on_finish`` may refuse the last
    token's row when the cache is brim-full, which leaves that
    conversation one token short from then on.

    Mutation record: growing the decoders before a separate-mode
    iteration that runs only prefills (the Figure 13 ablation's old
    order) caches a row no decode wrote, and fails the ``unified=False``
    cases."""

    @pytest.mark.parametrize("knobs", ABLATIONS.values(), ids=list(ABLATIONS))
    @pytest.mark.parametrize("policy", ["retention", "lru"])
    def test_cached_context_is_history_prompt_and_output(self, knobs, policy):
        kv = OPT_13B.kv_bytes_per_token
        spec = replace(A100_80GB, kv_cache_bytes=kv * 3072, cpu_memory_bytes=kv * 1024)
        loop = EventLoop()
        engine = PensieveEngine(
            loop, OPT_13B, spec, policy=policy, **{"chunk_size": 32, **knobs}
        )
        short = {}  # conversations whose final token was refused once
        finished = []
        on_finish = engine._on_finish

        def checked(request, now):
            conv = request.conv_id
            (before,) = engine.manager.context_lengths([conv])
            on_finish(request, now)
            (after,) = engine.manager.context_lengths([conv])
            expected = (
                request.history_tokens + request.prompt_tokens
                + request.output_tokens - short.get(conv, 0)
            )
            assert before == expected - 1, (request.request_id, before, expected)
            if after == before:
                short[conv] = short.get(conv, 0) + 1
            else:
                assert after == expected
            finished.append(request)

        engine._on_finish = checked
        conversations = _mixed_conversations()
        ConversationDriver(loop, engine, conversations).run(
            until=120.0, max_events=2_000_000
        )
        assert len(finished) == sum(c.num_turns for c in conversations)
        assert engine.manager.stats["swapped_out_tokens"] > 0


class TestInertAblations:
    """Where an ablation knob must change nothing, because what it acts on
    never happens in the run.  Each test first asserts that the knob's
    trigger never happens, then that the knob's run makes the default
    run's decisions: the same transfers, ``manager.stats`` and iteration
    count (and serving statistics).

    - On a GPU that never fills nothing is evicted, so neither the
      eviction granularity nor the eviction policy has a choice to make.
    - With no arrival while a request decodes, no iteration has both a
      prefill to run and a decoder to stall, so separate batches
      (``unified=False``) form the unified ones.
    - With no swap-in, there is no transfer to pipeline with the layers
      (``pipelined_swap_in``) and no restore for evictions to wait for
      (``prioritize_retrieval``); evictions still copy out."""

    @staticmethod
    def run(workload, **knobs):
        """``(engine, decisions, batches)``: ``batches`` holds each
        iteration's set of phases, ``prefill`` and ``decode``."""
        if workload == "opt-13b":
            kv = OPT_13B.kv_bytes_per_token
            spec = replace(
                A100_80GB, kv_cache_bytes=kv * 16384, cpu_memory_bytes=kv * 1024
            )
            conversations, model = _mixed_conversations(), OPT_13B
        elif workload == "tiny":
            spec = spec_with_capacity(4096)
            conversations, model = [
                scripted_conversation(i, [(24, 12), (16, 12), (12, 10)],
                                      start=0.05 * i, think=0.3)
                for i in range(8)
            ], TINY
        elif workload == "one-at-a-time":
            # Each conversation's turns, and the next conversation, start
            # after the last request has finished.
            spec = spec_with_capacity(4096)
            conversations, model = [
                scripted_conversation(i, [(24, 12), (16, 12), (12, 10)],
                                      start=5.0 * i, think=1.0)
                for i in range(4)
            ], TINY
        else:  # "no-return": one turn each on a GPU that fills
            spec = spec_with_capacity(256)
            conversations, model = [
                scripted_conversation(i, [(40, 20)], start=0.05 * i)
                for i in range(12)
            ], TINY
        batches = []

        def factory(loop):
            engine = PensieveEngine(loop, model, spec, chunk_size=32, **knobs)
            execute = engine._execute

            def spy(batch, now):
                batches.append(
                    {"decode" if r.prefill_done else "prefill" for r in batch}
                )
                return execute(batch, now)

            engine._execute = spy
            return engine

        engine, stats = run_serving_once(
            factory, conversations, until=120.0, warmup=0.0
        )
        transfers = [
            (r.direction, r.num_bytes, r.start_time, r.end_time)
            for r in engine.pcie.history + engine.nvme.history
        ]
        decisions = (
            transfers, dict(engine.manager.stats), engine.iterations, stats.as_dict()
        )
        return engine, decisions, batches

    @classmethod
    def never_fills(cls, workload, **knobs):
        engine, decisions, _ = cls.run(workload, **knobs)
        cached = engine.manager.stats
        # The GPU never filled, and returning turns found their context.
        assert cached["swapped_out_tokens"] == cached["dropped_tokens"] == 0
        assert cached["gpu_hit_tokens"] > 0
        return decisions

    @pytest.mark.parametrize("workload", ["opt-13b", "tiny"])
    def test_whole_conversation_eviction_is_inert(self, workload):
        assert self.never_fills(workload, whole_conversation_eviction=True) == (
            self.never_fills(workload)
        )

    @pytest.mark.parametrize("workload", ["opt-13b", "tiny"])
    def test_lru_decides_as_retention_does(self, workload):
        assert self.never_fills(workload, policy="lru") == (
            self.never_fills(workload, policy="retention")
        )

    def test_separate_batches_are_inert_without_an_arrival_during_decoding(self):
        engine, decisions, batches = self.run("one-at-a-time")
        assert {"prefill", "decode"} not in batches
        assert {"prefill"} in batches and {"decode"} in batches
        assert engine.manager.stats["gpu_hit_tokens"] > 0
        assert self.run("one-at-a-time", unified=False)[1] == decisions

    @pytest.mark.parametrize(
        "knob", ["pipelined_swap_in", "prioritize_retrieval"]
    )
    def test_swap_in_knobs_are_inert_without_a_swap_in(self, knob):
        engine, decisions, _ = self.run("no-return")
        directions = {r.direction for r in engine.pcie.history}
        assert engine.manager.stats["cpu_hit_tokens"] == 0
        assert directions == {Direction.D2H}, directions
        assert self.run("no-return", **{knob: False})[1] == decisions


class TestCacheManagement:
    def test_ahead_of_time_swap_triggers_below_threshold(self):
        """Filling most of a small GPU cache triggers AOT copies."""
        convs = [
            scripted_conversation(i, [(20, 20)], start=float(i) * 0.5)
            for i in range(8)
        ]
        tracer = Tracer()
        engine, _ = run_serving_once(
            pensieve_factory(capacity_tokens=256), convs, tracer=tracer
        )
        assert any(
            span.attrs["kind"] == "ahead_of_time"
            for span in tracer.spans_named("swap_out")
        )
        assert engine.manager.stats["swapped_out_tokens"] > 0
        # The armed tracer tells the run's whole story.
        assert len(tracer.spans_named("iteration")) == engine.iterations
        assert len(tracer.spans_named("request")) == len(convs)

    def test_returning_conversation_swaps_in(self):
        """A conversation evicted to CPU is swapped back in, not
        recomputed."""
        convs = [
            scripted_conversation(0, [(60, 20), (10, 10)], think=30.0),
            # Filler conversations push conv 0 out while it thinks.
            *[
                scripted_conversation(10 + i, [(60, 30)], start=3.0 + i)
                for i in range(4)
            ],
        ]
        tracer = Tracer()
        engine, _ = run_serving_once(
            pensieve_factory(capacity_tokens=256), convs, tracer=tracer
        )
        stats = engine.manager.stats
        assert stats["cpu_hit_tokens"] > 0
        assert len(tracer.spans_named("swap_in")) >= 1
        joins = [attrs for name, *_, attrs in tracer.instants if name == "batch_join"]
        assert sum(a["swap_in"] for a in joins) == stats["cpu_hit_tokens"]

    def test_gpu_cache_variant_recomputes(self):
        """Without a CPU tier, evicted context must be recomputed."""
        convs = [
            scripted_conversation(0, [(60, 20), (10, 10)], think=30.0),
            *[
                scripted_conversation(10 + i, [(60, 30)], start=3.0 + i)
                for i in range(4)
            ],
        ]
        engine, _, _ = serve(
            pensieve_factory(capacity_tokens=256, cpu_tokens=0), convs
        )
        stats = engine.manager.stats
        assert stats["cpu_hit_tokens"] == 0
        assert stats["recomputed_tokens"] > 0
        assert len(engine.metrics) == 6

    def test_suspension_under_decode_pressure(self):
        """Concurrent decoders outgrowing the GPU suspend the youngest
        (§4.3.5) and still finish."""
        convs = [
            scripted_conversation(i, [(30, 60)], start=float(i) * 0.01)
            for i in range(4)
        ]
        engine, driver, _ = serve(
            pensieve_factory(
                capacity_tokens=160,
                batch_config=BatchConfig(max_batch_tokens=512, generation_reserve=0.0),
            ),
            convs,
        )
        assert len(engine.metrics) == 4
        assert driver.outstanding == 0

    @pytest.mark.parametrize("until", [None, 0.2])
    def test_prefill_shapes_do_not_pile_up(self, until):
        """Regression: ``_prefill_info`` gained one entry per admission
        and never lost one (1,871 entries against 107 running requests
        after one rate of the benchmark sweep).  Suspended requests are
        re-admitted here, and the cut run stops with requests in flight."""
        convs = [
            scripted_conversation(i, [(30, 60)], start=float(i) * 0.01)
            for i in range(4)
        ]
        engine, _ = run_serving_once(
            pensieve_factory(
                capacity_tokens=160,
                batch_config=BatchConfig(max_batch_tokens=512, generation_reserve=0.0),
            ),
            convs,
            until=until,
        )
        assert engine.suspensions > 0
        assert len(engine._prefill_info) <= len(engine.running)

    def test_a_decode_step_reclaims_through_one_stream(self):
        """Twelve decoders on a full 512-token GPU with 4-token chunks: a
        step's deficit can span several copies.  No iteration's decode
        growth opens more than one ``GPU_CPU`` victim stream (one scan per
        reclaimed chunk would open one per copy), and some iteration
        reclaims through one."""
        convs = [
            scripted_conversation(i, [(40, 60), (20, 40)], think=0.5)
            for i in range(12)
        ]
        streams = Counter()

        def factory(loop):
            engine = PensieveEngine(loop, TINY, spec_with_capacity(512), chunk_size=4)
            manager = engine.manager
            append_decode_step, victims = manager.append_decode_step, manager._victims
            growing = []

            def counted_step(conv_ids, now):
                growing.append(True)
                try:
                    return append_decode_step(conv_ids, now)
                finally:
                    growing.pop()

            def counted_victims(location, now, exclude=()):
                if growing and location is ChunkLocation.GPU_CPU:
                    streams[engine.iterations] += 1
                return victims(location, now, exclude)

            manager.append_decode_step = counted_step
            manager._victims = counted_victims
            return engine

        engine, stats = run_serving_once(factory, convs)
        assert stats.num_requests == 24 and engine.suspensions > 0
        assert streams and max(streams.values()) == 1, streams
        engine.manager._audit()

    def test_counters_stay_consistent(self):
        convs = [
            scripted_conversation(i, [(20, 15), (6, 10)], start=float(i) * 0.3)
            for i in range(6)
        ]
        engine, _, _ = serve(pensieve_factory(capacity_tokens=256), convs)
        engine.manager._audit()


class TestSuspendResume:
    """§4.3.5 suspension and re-admission under GPU pressure: four
    conversations of one 40-token prompt and 80 output tokens on a
    256-token GPU tier suspend, resume and finish."""

    @staticmethod
    def _run(n, turns, gpu, cpu, disk=0, armed=False):
        loop = EventLoop()
        engine = pensieve_factory(
            capacity_tokens=gpu, cpu_tokens=cpu, disk_cache_tokens=disk
        )(loop)
        if armed:
            engine.metrics.enable_slo(
                slo=SloConfig(), hist=HistogramSet(), flight=FlightRecorder()
            )
        convs = [scripted_conversation(i, turns, start=0.01 * i) for i in range(n)]
        driver = ConversationDriver(loop, engine, convs)
        # A livelock dispatches events forever; this cap turns it into a
        # SimulationError.
        driver.run(max_events=200_000)
        return engine, driver

    def test_resumed_request_adds_only_its_last_token(self):
        """Regression: each resume appended the prompt to the cached
        context again (contexts ended at 120/120/159/198)."""
        engine, driver = self._run(4, [(40, 80)], gpu=256, cpu=4096)
        assert engine.suspensions > 0
        assert driver.outstanding == 0
        assert [engine.manager.conversation(i).total_tokens for i in range(4)] == [
            120
        ] * 4

    def test_ttft_is_stamped_once_across_resumes(self):
        """Regression: a resumed request re-stamped its first-token time,
        so the records' TTFT read the resume while the histogram read the
        first token."""
        engine, _ = self._run(4, [(40, 80)], gpu=256, cpu=4096, armed=True)
        assert engine.suspensions > 0
        ttft = engine.metrics.hist.get("ttft_seconds")
        records = engine.metrics.records
        assert ttft.count == len(records) == 4
        assert ttft.sum == pytest.approx(sum(r.ttft for r in records), abs=1e-12)

    @pytest.mark.parametrize(
        "n, output, failed",
        [
            (10, 80, 10),  # turn 2's 240-token context outgrows the tier
            (6, 56, 0),  # the resume inflation alone used to livelock it
        ],
    )
    def test_request_that_can_never_fit_fails_instead_of_spinning(
        self, n, output, failed
    ):
        """Liveness: a request whose context plus its next token cannot
        fit the 192-token GPU tier on its own fails up front, through
        ``_fail_request``; everything else drains."""
        engine, driver = self._run(
            n, [(40, output)] * 2, gpu=192, cpu=384, disk=4096
        )
        assert driver.outstanding == 0
        assert engine.num_failed == failed
        assert len(engine.metrics.records) == 2 * n - failed
        assert {f.reason for f in engine.metrics.failures} <= {"context_exceeds_gpu"}


class TestPipelinedSwapIn:
    def test_pipelining_reduces_latency(self):
        """Blocking swap-in must be slower than pipelined (§4.3.3)."""
        def workload():
            return [
                scripted_conversation(0, [(100, 20), (10, 20)], think=30.0),
                *[
                    scripted_conversation(10 + i, [(60, 30)], start=3.0 + i)
                    for i in range(4)
                ],
            ]

        pipe, _, _ = serve(pensieve_factory(capacity_tokens=320), workload())
        block, _, _ = serve(
            pensieve_factory(capacity_tokens=320, pipelined_swap_in=False),
            workload(),
        )
        assert pipe.manager.stats["cpu_hit_tokens"] > 0
        pipe_latency = pipe.metrics.records[-1].latency
        block_latency = block.metrics.records[-1].latency
        assert pipe_latency <= block_latency


def test_dropped_disk_tier_engine_is_freed_without_the_collector():
    """The disk tier's demotion observer must not hold the engine: with
    the cyclic collector off, a dropped engine is freed at once."""
    gc.disable()
    try:
        engine = pensieve_factory(1024, cpu_tokens=256, disk_cache_tokens=4096)(
            EventLoop()
        )
        assert engine.manager.observer is not None
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        gc.enable()
