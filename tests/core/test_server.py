"""End-to-end tests for the functional stateful chat server.

The central theorem being tested: *no cache-management decision may change
the model's output*.  A server under severe memory pressure — swapping,
dropping, recomputing — must emit exactly the same tokens as a server with
abundant memory serving the same scripted conversations.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core import StatefulChatServer
from repro.kvcache.chunks import ChunkLocation
from repro.model import tiny_llama_config, tiny_opt_config


def scripted_turns(rng, num_rounds=3, num_convs=3, lo=5, hi=14):
    turns = []
    for _ in range(num_rounds):
        for conv in range(num_convs):
            size = int(rng.integers(lo, hi))
            turns.append((conv, list(rng.integers(4, 120, size=size))))
    return turns


def run_script(server, turns, max_new_tokens=5):
    return [
        server.chat(conv, prompt_ids=ids, max_new_tokens=max_new_tokens)
        for conv, ids in turns
    ]


@pytest.fixture(params=["opt", "llama"])
def config(request):
    return tiny_opt_config() if request.param == "opt" else tiny_llama_config()


class TestBasicChat:
    def test_generates_requested_tokens(self, config):
        server = StatefulChatServer(config, seed=3, chunk_size=16)
        out = server.chat(0, prompt_ids=[5, 6, 7], max_new_tokens=4)
        assert len(out) == 4
        assert all(0 <= t < config.vocab_size for t in out)

    def test_text_round_trip(self, config):
        server = StatefulChatServer(config, seed=3, chunk_size=16)
        reply = server.chat_text(0, "hello world how are you", max_new_tokens=3)
        assert isinstance(reply, str) and reply

    def test_context_accumulates_across_turns(self, config):
        server = StatefulChatServer(config, seed=3, chunk_size=16)
        server.chat(0, prompt_ids=[1, 2, 3], max_new_tokens=4)
        assert server.context_length(0) == 7
        server.chat(0, prompt_ids=[4, 5], max_new_tokens=4)
        assert server.context_length(0) == 13

    def test_empty_prompt_rejected(self, config):
        server = StatefulChatServer(config, chunk_size=16)
        with pytest.raises(ValueError):
            server.chat(0, prompt_ids=[])

    def test_chunk_page_alignment_enforced(self, config):
        with pytest.raises(ValueError):
            StatefulChatServer(config, chunk_size=12, page_size=8)

    def test_determinism(self, config):
        rng = np.random.default_rng(0)
        turns = scripted_turns(rng)
        a = run_script(StatefulChatServer(config, seed=2, chunk_size=16), turns)
        b = run_script(StatefulChatServer(config, seed=2, chunk_size=16), turns)
        assert a == b


class TestEquivalenceUnderPressure:
    """Same outputs regardless of cache capacity (the correctness core)."""

    def roomy(self, config):
        return StatefulChatServer(
            config, gpu_capacity_tokens=8192, cpu_capacity_tokens=16384,
            chunk_size=16, page_size=8, seed=1,
        )

    def test_swap_pressure_equivalence(self, config):
        rng = np.random.default_rng(11)
        turns = scripted_turns(rng, num_rounds=4, num_convs=4)
        tight = StatefulChatServer(
            config, gpu_capacity_tokens=128, cpu_capacity_tokens=2048,
            chunk_size=16, page_size=8, seed=1,
        )
        assert run_script(tight, turns) == run_script(self.roomy(config), turns)
        # The tight server really did swap.
        assert tight.manager.stats["swapped_out_tokens"] > 0
        assert tight.manager.stats["cpu_hit_tokens"] > 0
        # Pure swap pressure: nothing had to be dropped or recomputed.
        assert tight.manager.stats["dropped_tokens"] == 0
        assert tight.manager.stats["recomputed_tokens"] == 0

    def test_drop_and_recompute_equivalence(self, config):
        rng = np.random.default_rng(13)
        turns = scripted_turns(rng, num_rounds=5, num_convs=5)
        tight = StatefulChatServer(
            config, gpu_capacity_tokens=160, cpu_capacity_tokens=64,
            chunk_size=16, page_size=8, seed=1,
        )
        assert run_script(tight, turns, max_new_tokens=6) == run_script(
            self.roomy(config), turns, max_new_tokens=6
        )
        assert tight.manager.stats["dropped_tokens"] > 0
        assert tight.manager.stats["recomputed_tokens"] > 0

    def test_gpu_cache_only_equivalence(self, config):
        """cpu_capacity_tokens=0: everything evicted is recomputed."""
        rng = np.random.default_rng(17)
        turns = scripted_turns(rng, num_rounds=4, num_convs=5)
        tight = StatefulChatServer(
            config, gpu_capacity_tokens=144, cpu_capacity_tokens=0,
            chunk_size=16, page_size=8, seed=1,
        )
        assert run_script(tight, turns, max_new_tokens=6) == run_script(
            self.roomy(config), turns, max_new_tokens=6
        )
        assert tight.manager.stats["cpu_hit_tokens"] == 0
        assert tight.manager.stats["recomputed_tokens"] > 0

    def test_counters_audit_after_pressure(self, config):
        rng = np.random.default_rng(19)
        turns = scripted_turns(rng, num_rounds=3, num_convs=4)
        tight = StatefulChatServer(
            config, gpu_capacity_tokens=176, cpu_capacity_tokens=128,
            chunk_size=16, page_size=8, seed=1,
        )
        run_script(tight, turns)
        tight.manager._audit()


class TestContextLimit:
    """A turn whose positions would pass ``config.max_position`` (system
    prompt, cached history with its unwritten last token, prompt and
    ``max_new_tokens``) is refused before anything moves."""

    SYSTEM = list(range(4, 12))

    def served(self, config):
        server = StatefulChatServer(
            config, seed=3, chunk_size=16, gpu_capacity_tokens=1024
        )
        server.set_system_prompt(prompt_ids=self.SYSTEM)
        server.chat(0, prompt_ids=[5] * 20, max_new_tokens=4)
        return server

    def room(self, server, config):
        return config.max_position - len(self.SYSTEM) - server.context_length(0)

    def test_a_turn_past_max_position_is_refused_up_front(self, config):
        server = self.served(config)
        before = (
            server.context_length(0), list(server.raw_tokens[0]),
            dict(server.manager.stats), server.placement(0),
        )
        too_long = [7] * (self.room(server, config) - 3)
        with pytest.raises(ValueError, match=r"conversation 0 .*max_position=512"):
            server.chat(0, prompt_ids=too_long, max_new_tokens=4)
        with pytest.raises(ValueError, match="conversation 0"):
            server.chat_batch([(1, [3]), (0, too_long)], max_new_tokens=4)
        assert (
            server.context_length(0), server.raw_tokens[0],
            server.manager.stats, server.placement(0),
        ) == before
        server.manager._audit()
        # The clock did not move either: the next turn is a fresh
        # server's second turn, to the token and the counter.
        fresh = self.served(config)
        assert server.chat(0, prompt_ids=[9, 10], max_new_tokens=4) == fresh.chat(
            0, prompt_ids=[9, 10], max_new_tokens=4
        )
        assert server.manager.stats == fresh.manager.stats
        assert server.raw_tokens == fresh.raw_tokens

    def test_a_turn_that_fills_max_position_is_served(self, config):
        server = self.served(config)
        fits = [7] * (self.room(server, config) - 4)
        assert len(server.chat(0, prompt_ids=fits, max_new_tokens=4)) == 4
        assert len(self.SYSTEM) + server.context_length(0) == config.max_position


class TestPlacementIntrospection:
    def test_placement_reports_figure5_segments(self):
        config = tiny_opt_config()
        server = StatefulChatServer(
            config, gpu_capacity_tokens=96, cpu_capacity_tokens=64,
            chunk_size=16, page_size=8, seed=1,
        )
        rng = np.random.default_rng(23)
        for _ in range(2):
            for conv in range(5):
                server.chat(conv, prompt_ids=list(rng.integers(4, 100, 12)),
                            max_new_tokens=8)
        placements = [server.placement(c) for c in range(5)]
        locations = {loc for p in placements for loc in p}
        # Ten 20-token turns against a 96-token GPU / 64-token CPU budget
        # must spread contexts across all Figure 5 segments.
        assert "gpu" in locations
        assert "cpu" in locations
        assert "dropped" in locations

    def test_unknown_conversation_empty(self):
        server = StatefulChatServer(tiny_opt_config(), chunk_size=16)
        assert server.placement(404) == {}
        assert server.context_length(404) == 0


class TestRawTokenStore:
    def test_history_matches_serving(self):
        """The persistent store (Figure 7) holds prompt + reply tokens."""
        config = tiny_opt_config()
        server = StatefulChatServer(config, seed=3, chunk_size=16)
        out1 = server.chat(0, prompt_ids=[1, 2, 3], max_new_tokens=4)
        out2 = server.chat(0, prompt_ids=[9], max_new_tokens=2)
        assert server.raw_tokens[0] == [1, 2, 3] + out1 + [9] + out2


def test_dropped_server_is_freed_without_the_collector():
    """The manager's transition observer must not hold the server: with
    the cyclic collector off, a served and dropped server (weights, KV
    pool, stores) is freed at once."""
    gc.disable()
    try:
        server = StatefulChatServer(
            tiny_llama_config(), gpu_capacity_tokens=96, cpu_capacity_tokens=256,
            chunk_size=16, page_size=8, seed=0,
        )
        run_script(server, scripted_turns(np.random.default_rng(0)))
        assert server.manager.stats["swapped_out_tokens"] > 0
        ref = weakref.ref(server)
        del server
        assert ref() is None
    finally:
        gc.enable()
