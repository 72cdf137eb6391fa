"""Tests for the Pensieve serving engine (simulation layer)."""

import pytest

from repro.core import PensieveEngine
from repro.experiments.common import run_serving_once
from repro.obs import Tracer
from repro.serving import BatchConfig, make_vllm
from repro.sim import EventLoop
from repro.workload import ConversationDriver

from tests.serving.conftest import TINY, scripted_conversation, serve, spec_with_capacity


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

    def test_counters_stay_consistent(self):
        convs = [
            scripted_conversation(i, [(20, 15), (6, 10)], start=float(i) * 0.3)
            for i in range(6)
        ]
        engine, _, _ = serve(pensieve_factory(capacity_tokens=256), convs)
        engine.manager._audit()


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
