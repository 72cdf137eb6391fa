"""Chaos tests: the functional server under seeded fault schedules.

The acceptance bar for graceful degradation is *differential*: a server
running with tight memory and an armed :class:`FaultPlan` must produce
greedy outputs bit-identical to a fault-free server with abundant memory.
Every recovery path — swap-out degradation to drops, swap-in fallback to
recompute, checksum-detected corruption, transient allocation retries —
funnels into the §4.3.4 recompute path, which replays the exact same
tokens through the exact same deterministic model, so outputs must not
change.  Terminal faults (retries exhausted) fail one request with a
structured error while the rest of the batch keeps going.

``TestEverySingleFaultPoint`` faults the differential fixture at one
injection point per run: per site, the first and the last point and
every :data:`STRIDE`-th one between them in tier-1, and every point
(about 600 runs) when ``CHAOS_EXTRA_SEED`` is set, as in CI's chaos job.
"""

import functools
import os
from collections import Counter

import pytest

from repro.core.engine import PensieveEngine
from repro.core.server import StatefulChatServer
from repro.experiments.common import run_serving_once
from repro.faults import FaultPlan, FaultSite, RequestFaultedError
from repro.faults.retry import MAX_RETRIES
from repro.model.config import tiny_llama_config, tiny_opt_config
from repro.obs import Tracer

from tests.serving.conftest import TINY, scripted_conversation, spec_with_capacity
from tests.test_run_digests import pressure_rounds, pressure_server

# CI arms one extra seed per matrix entry via this env var.
_EXTRA = os.environ.get("CHAOS_EXTRA_SEED")
CHAOS_SEEDS = [0, 1, 2, 3] + ([int(_EXTRA)] if _EXTRA else [])

RECOVERABLE_RATES = {
    FaultSite.SWAP_IN: 0.4,
    FaultSite.SWAP_OUT: 0.4,
    FaultSite.CPU_READ: 0.3,
}


def drive(server, config, turns=8, convs=4, prompt_len=13, new_tokens=8):
    """Interleave multi-turn conversations; audit after every turn."""
    outputs = []
    for turn in range(turns):
        for conv in range(convs):
            prompt = [
                (conv * 17 + turn * 5 + i) % config.vocab_size
                for i in range(prompt_len)
            ]
            outputs.append(
                (conv, server.chat(conv, prompt_ids=prompt, max_new_tokens=new_tokens))
            )
            server.manager._audit()
    return outputs


def fixture_server(plan):
    """The two-tier differential fixture: tiny Llama, GPU 224 and CPU 512
    tokens, chunk 16."""
    return StatefulChatServer(
        tiny_llama_config(),
        gpu_capacity_tokens=224,
        cpu_capacity_tokens=512,
        seed=0,
        fault_plan=plan,
        chunk_size=16,
    )


def reference_outputs(config, **kwargs):
    server = StatefulChatServer(
        config,
        gpu_capacity_tokens=1 << 20,
        cpu_capacity_tokens=1 << 20,
        seed=0,
        chunk_size=16,
    )
    return drive(server, config, **kwargs)


@functools.lru_cache(maxsize=None)
def fixture_reference():
    return reference_outputs(tiny_llama_config())


def fault_points():
    """Each site's injection points in the fixture's run: a plan that
    fires nothing still counts every draw."""
    plan = FaultPlan()
    drive(fixture_server(plan), tiny_llama_config())
    return {site: n for site, n in plan.occurrences.items() if n}


#: Tier-1 faults every ``STRIDE``-th point of each site (plus its last).
STRIDE = 1 if _EXTRA else 12
POINTS = [
    (site, index)
    for site, count in fault_points().items()
    for index in sorted({*range(0, count, STRIDE), count - 1})
]


class TestEverySingleFaultPoint:
    @pytest.mark.parametrize(
        "site, index", POINTS, ids=[f"{s.value}-{i}" for s, i in POINTS]
    )
    def test_one_fault_leaves_the_transcript_unchanged(self, site, index):
        """One fault, anywhere, is absorbed by a retry or degrades to
        recompute: the transcript equals the unlimited-memory one and no
        request fails."""
        plan = FaultPlan(schedules={site: [index]})
        server = fixture_server(plan)
        assert drive(server, tiny_llama_config()) == fixture_reference()
        assert plan.fired == {s: int(s is site) for s in FaultSite}
        assert server.fault_counters.degraded_requests == 0

    def test_the_points_cover_every_site_the_server_draws(self):
        assert {site for site, _ in POINTS} == {
            FaultSite.SWAP_IN, FaultSite.SWAP_OUT, FaultSite.GPU_ALLOC,
            FaultSite.CPU_READ,
        }


class TestDifferentialUnderFaults:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_outputs_identical_under_recoverable_faults(self, seed):
        config = tiny_llama_config()
        plan = FaultPlan(seed=seed, rates=RECOVERABLE_RATES)
        server = fixture_server(plan)
        assert drive(server, config) == fixture_reference()
        # Tight memory + high rates: the run must actually have been chaotic.
        assert sum(plan.fired.values()) > 0
        assert server.fault_counters.degraded_requests == 0

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_opt_architecture_identical_too(self, seed):
        config = tiny_opt_config()
        ref = reference_outputs(config, turns=5, convs=3)
        plan = FaultPlan(seed=seed, rates=RECOVERABLE_RATES)
        server = StatefulChatServer(
            config,
            gpu_capacity_tokens=192,
            cpu_capacity_tokens=512,
            seed=0,
            fault_plan=plan,
            chunk_size=16,
        )
        assert drive(server, config, turns=5, convs=3) == ref

    def test_batched_serving_identical_under_faults(self):
        config = tiny_llama_config()
        reference = StatefulChatServer(
            config, gpu_capacity_tokens=1 << 20, cpu_capacity_tokens=1 << 20, seed=0,
            chunk_size=16,
        )
        plan = FaultPlan(seed=11, rates=RECOVERABLE_RATES)
        # A batch pins all its members, so pressure comes from *rotating*
        # pairs of conversations through a GPU that cannot hold all four.
        chaotic = StatefulChatServer(
            config,
            gpu_capacity_tokens=160,
            cpu_capacity_tokens=512,
            seed=0,
            fault_plan=plan,
            chunk_size=16,
        )
        for turn in range(6):
            pair = (0, 1) if turn % 2 == 0 else (2, 3)
            prompts = [
                (conv, [(conv * 13 + turn * 7 + i) % config.vocab_size for i in range(11)])
                for conv in pair
            ]
            want = reference.chat_batch(prompts, max_new_tokens=6)
            got = chaotic.chat_batch(prompts, max_new_tokens=6)
            assert got == want
            chaotic.manager._audit()
        assert sum(plan.fired.values()) > 0

    def test_terminal_swap_in_falls_back_to_recompute(self):
        """Exhausting SWAP_IN retries degrades to recompute, not an error."""
        config = tiny_llama_config()
        ref = reference_outputs(config, turns=4, convs=3, prompt_len=20, new_tokens=6)
        # The retry budget is 3 retries: four consecutive occurrence
        # indices make the first restore's transfer terminally fail.
        plan = FaultPlan(seed=0, schedules={FaultSite.SWAP_IN: (0, 1, 2, 3)})
        server = StatefulChatServer(
            config,
            gpu_capacity_tokens=128,
            cpu_capacity_tokens=1024,
            seed=0,
            fault_plan=plan,
            chunk_size=16,
        )
        got = drive(server, config, turns=4, convs=3, prompt_len=20, new_tokens=6)
        assert got == ref
        assert server.fault_counters.swap_in_failures == 1
        assert server.fault_counters.recompute_fallbacks >= 1
        assert server.fault_counters.degraded_requests == 0


class TestBatchedGrowthUnderPressure:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_survivors_match_an_unlimited_server(self, seed):
        """The ``server/batch/pressure`` rounds, armed.  In the first
        round a schedule fails the newcomer's first decode-step
        allocation for good; that frees one slot of the four the step
        lacks, so the same step aborts the latest-joined member for
        capacity.  Every later round draws from a seeded ``GPU_ALLOC``
        rate.  After every call the survivors' tokens equal an unlimited
        server's, the manager's counters re-derive, and the pool's
        allocated pages are exactly the block tables' pages."""
        # Draws 0-3 are the four restores' gates; draw 4 is the
        # newcomer's first decode-step gate, and its retries follow.
        server = pressure_server(
            FaultPlan(schedules={FaultSite.GPU_ALLOC: range(4, 5 + MAX_RETRIES)})
        )
        reference = StatefulChatServer(
            server.config, gpu_capacity_tokens=1 << 20, cpu_capacity_tokens=1 << 20,
            seed=0, chunk_size=16,
        )
        steps = []
        append_tokens = server.manager.append_tokens

        def counted(conv_ids, now):
            steps.append(list(conv_ids))
            return append_tokens(conv_ids, now)

        server.manager.append_tokens = counted
        # A conversation lost on the starved server starts over under a
        # fresh reference id.
        starts = Counter()
        for rnd, (prompts, got) in enumerate(pressure_rounds(server)):
            if rnd == 0:
                # Both aborts came before the first step grew anyone.
                assert [(e.conv_id, e.attempts) for e in server.failures] == [
                    (0, 1 + MAX_RETRIES), (3, 1),
                ]
                assert steps[0] == [1, 2]
                server.fault_plan = FaultPlan(
                    seed=seed, rates={FaultSite.GPU_ALLOC: 0.3}
                )
            served = [(c, prompt) for c, prompt in prompts if c in got]
            want = reference.chat_batch(
                [(c + 100 * starts[c], prompt) for c, prompt in served],
                max_new_tokens=6,
            )
            assert got == {c: want[c + 100 * starts[c]] for c, _ in served}
            for c, _ in prompts:
                if c not in got and server.context_length(c) == 0:
                    starts[c] += 1
            server.manager._audit()
            assert server.pool.num_allocated_pages == sum(
                table.num_pages for table in server._tables.values()
            )
        # The rate's own aborts, after the first round's two.
        assert server.fault_counters.degraded_requests > 2


class TestFaultAccounting:
    def test_absorbed_alloc_fault_counts_once(self):
        """One allocation fault, retried once and recovered: one retry
        and one ``alloc_faults``, as the simulated engine counts it."""
        config = tiny_llama_config()
        reference = StatefulChatServer(
            config, gpu_capacity_tokens=1 << 20, cpu_capacity_tokens=1 << 20, seed=0,
            chunk_size=16,
        )
        plan = FaultPlan(seed=0, schedules={FaultSite.GPU_ALLOC: (0,)})
        server = StatefulChatServer(
            config,
            gpu_capacity_tokens=256,
            cpu_capacity_tokens=1024,
            seed=0,
            fault_plan=plan,
            chunk_size=16,
        )
        want = reference.chat(0, prompt_ids=[1, 2, 3, 4], max_new_tokens=4)
        assert server.chat(0, prompt_ids=[1, 2, 3, 4], max_new_tokens=4) == want
        counters = server.fault_counters
        assert (counters.retries, counters.alloc_faults) == (1, 1)
        assert counters.degraded_requests == 0

    def test_terminal_swap_in_fallback_is_traced_like_the_engine(self):
        """Both executors give a terminally failed swap-in up through the
        cache manager's one fallback rung, so both count and trace it the
        same way: one ``fault.recompute_fallbacks`` and one
        ``swap_in_fallback`` event (the engine adds its request id)."""
        schedule = {FaultSite.SWAP_IN: (0, 1, 2, 3)}
        config = tiny_llama_config()
        server_tracer = Tracer()
        server = StatefulChatServer(
            config,
            gpu_capacity_tokens=128,
            cpu_capacity_tokens=1024,
            seed=0,
            fault_plan=FaultPlan(seed=0, schedules=schedule),
            chunk_size=16,
        )
        server.set_tracer(server_tracer)
        drive(server, config, turns=4, convs=3, prompt_len=20, new_tokens=6)

        def engine_factory(loop):
            return PensieveEngine(
                loop, TINY, spec_with_capacity(192), chunk_size=16, policy="lru",
                fault_plan=FaultPlan(seed=0, schedules=schedule),
            )

        conversations = [
            scripted_conversation(i, [(24, 12), (16, 12)], start=0.05 * i, think=0.3)
            for i in range(8)
        ]
        engine_tracer = Tracer()
        engine, _ = run_serving_once(
            engine_factory, conversations, until=60.0, warmup=0.0,
            tracer=engine_tracer,
        )
        for tracer, counters, own in (
            (server_tracer, server.fault_counters, set()),
            (engine_tracer, engine.metrics.faults, {"request_id"}),
        ):
            assert counters.swap_in_failures == counters.recompute_fallbacks == 1
            assert tracer.counter("fault.recompute_fallbacks") == 1
            (event,) = [i for i in tracer.instants if i[0] == "swap_in_fallback"]
            attrs = event[-1]
            assert set(attrs) - own == {"track", "conv_id", "tokens", "corrupt"}
            assert attrs["track"] == "cache"
            assert attrs["corrupt"] is False and attrs["tokens"] > 0


class TestIndividualRequestFailure:
    def test_terminal_alloc_fails_one_request_only(self):
        config = tiny_llama_config()
        plan = FaultPlan(seed=0, schedules={FaultSite.GPU_ALLOC: (0, 1, 2, 3)})
        server = StatefulChatServer(
            config,
            gpu_capacity_tokens=256,
            cpu_capacity_tokens=1024,
            seed=0,
            fault_plan=plan,
            chunk_size=16,
        )
        with pytest.raises(RequestFaultedError) as excinfo:
            server.chat(0, prompt_ids=[1, 2, 3, 4], max_new_tokens=4)
        assert excinfo.value.conv_id == 0
        assert excinfo.value.site is FaultSite.GPU_ALLOC
        server.manager._audit()
        assert server.fault_counters.degraded_requests == 1
        assert len(server.failures) == 1
        # The failed conversation left no state behind...
        assert server.manager.conversation(0) is None
        assert server.context_length(0) == 0
        # ...and the server still serves other conversations.
        out = server.chat(1, prompt_ids=[5, 6, 7], max_new_tokens=4)
        assert len(out) == 4
        server.manager._audit()

    def test_failed_conversation_can_start_over(self):
        config = tiny_llama_config()
        plan = FaultPlan(seed=0, schedules={FaultSite.GPU_ALLOC: (0, 1, 2, 3)})
        server = StatefulChatServer(
            config,
            gpu_capacity_tokens=256,
            cpu_capacity_tokens=1024,
            seed=0,
            fault_plan=plan,
            chunk_size=16,
        )
        with pytest.raises(RequestFaultedError):
            server.chat(0, prompt_ids=[1, 2, 3], max_new_tokens=4)
        # Same conv id, fresh history: behaves like a brand-new conversation.
        reference = StatefulChatServer(
            config, gpu_capacity_tokens=1 << 20, cpu_capacity_tokens=1 << 20, seed=0,
            chunk_size=16,
        )
        want = reference.chat(0, prompt_ids=[9, 8, 7], max_new_tokens=5)
        assert server.chat(0, prompt_ids=[9, 8, 7], max_new_tokens=5) == want

    def test_batch_continues_around_failed_request(self):
        config = tiny_llama_config()
        reference = StatefulChatServer(
            config, gpu_capacity_tokens=1 << 20, cpu_capacity_tokens=1 << 20, seed=0,
            chunk_size=16,
        )
        # Conversation 0's restore is the batch's first GPU_ALLOC draw;
        # four consecutive fires exhaust the default retry budget, so it
        # fails individually while conversations 1 and 2 are served.
        plan = FaultPlan(seed=0, schedules={FaultSite.GPU_ALLOC: (0, 1, 2, 3)})
        server = StatefulChatServer(
            config,
            gpu_capacity_tokens=512,
            cpu_capacity_tokens=1024,
            seed=0,
            fault_plan=plan,
            chunk_size=16,
        )
        first = [(conv, [conv * 5 + 1, conv * 5 + 2]) for conv in range(3)]
        want = reference.chat_batch(first, max_new_tokens=4)
        got = server.chat_batch(first, max_new_tokens=4)
        assert server.fault_counters.degraded_requests == 1
        assert server.failures[-1].conv_id == 0
        assert set(got) == {1, 2}
        assert got == {conv: want[conv] for conv in (1, 2)}
        server.manager._audit()

        # Next turn is fault-free: the survivors continue from their
        # history and the failed conversation starts over cleanly.
        second = [(conv, [conv * 7 + 3, conv * 7 + 4]) for conv in range(3)]
        want = reference.chat_batch(second, max_new_tokens=4)
        got = server.chat_batch(second, max_new_tokens=4)
        assert set(got) == {0, 1, 2}
        assert got[1] == want[1] and got[2] == want[2]
        # Conversation 0 lost its first turn, so compare it against a
        # reference that never saw that turn.
        fresh = StatefulChatServer(
            config, gpu_capacity_tokens=1 << 20, cpu_capacity_tokens=1 << 20, seed=0,
            chunk_size=16,
        )
        assert got[0] == fresh.chat(0, prompt_ids=[3, 4], max_new_tokens=4)
        server.manager._audit()


class TestCorruptionRecovery:
    def test_checksum_detects_and_recovers(self):
        config = tiny_llama_config()
        ref = reference_outputs(config, turns=6, convs=3)
        plan = FaultPlan(seed=2, rates={FaultSite.CPU_READ: 0.5})
        server = StatefulChatServer(
            config,
            gpu_capacity_tokens=224,
            cpu_capacity_tokens=512,
            seed=0,
            fault_plan=plan,
            chunk_size=16,
        )
        assert drive(server, config, turns=6, convs=3) == ref
        assert server.fault_counters.corrupted_chunks > 0
        assert server.fault_counters.recompute_fallbacks > 0
