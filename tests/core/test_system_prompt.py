"""Tests for shared system-prompt state (paper footnote 3).

A common system prompt's KV state is prefilled once and designated
reusable: every conversation's context is the shared slots followed by its
own.  The correctness bar: serving with the shared state must produce
exactly the same outputs as prepending the system prompt to every
conversation's first turn.
"""

import numpy as np
import pytest

from repro.core import StatefulChatServer
from repro.model import tiny_llama_config, tiny_opt_config


SYSTEM = [7, 21, 9, 42, 13, 88, 30, 5]


def make_server(config, shared, gpu=512, cpu=1024, seed=1):
    server = StatefulChatServer(
        config, gpu_capacity_tokens=gpu, cpu_capacity_tokens=cpu,
        chunk_size=16, page_size=8, seed=seed,
    )
    if shared:
        server.set_system_prompt(prompt_ids=SYSTEM)
    return server


@pytest.fixture(params=["opt", "llama"])
def config(request):
    return tiny_opt_config() if request.param == "opt" else tiny_llama_config()


class TestEquivalence:
    def test_shared_prompt_equals_prepended_prompt(self, config):
        """Outputs with shared system state == outputs when each
        conversation's first turn carries the system prompt itself."""
        rng = np.random.default_rng(31)
        scripts = {
            conv: [list(rng.integers(4, 120, rng.integers(4, 10)))
                   for _ in range(3)]
            for conv in range(3)
        }
        shared = make_server(config, shared=True)
        baseline = make_server(config, shared=False)
        for turn_idx in range(3):
            for conv, turns in scripts.items():
                prompt = turns[turn_idx]
                out_shared = shared.chat(conv, prompt_ids=prompt, max_new_tokens=4)
                baseline_prompt = SYSTEM + prompt if turn_idx == 0 else prompt
                out_base = baseline.chat(
                    conv, prompt_ids=baseline_prompt, max_new_tokens=4
                )
                assert out_shared == out_base, (conv, turn_idx)

    def test_equivalence_survives_eviction_of_conversation_state(self, config):
        """The conversation's own chunks may be swapped or dropped while
        the shared prefix stays pinned; outputs still match a roomy
        baseline with prepended prompts."""
        rng = np.random.default_rng(37)
        turns = [
            (conv, list(rng.integers(4, 120, rng.integers(5, 12))))
            for _ in range(4)
            for conv in range(4)
        ]
        tight = make_server(config, shared=True, gpu=192, cpu=96)
        roomy = make_server(config, shared=True, gpu=4096, cpu=8192)
        seen = set()
        for conv, prompt in turns:
            out_tight = tight.chat(conv, prompt_ids=prompt, max_new_tokens=4)
            out_roomy = roomy.chat(conv, prompt_ids=prompt, max_new_tokens=4)
            assert out_tight == out_roomy
            seen.add(conv)
        # The tight server was actually under pressure.
        stats = tight.manager.stats
        assert stats["swapped_out_tokens"] + stats["dropped_tokens"] > 0


class TestSharing:
    def test_system_slots_allocated_once(self, config):
        server = make_server(config, shared=True)
        used_after_setup = server.manager.gpu_resident_tokens
        assert used_after_setup == len(SYSTEM)
        server.chat(0, prompt_ids=[1, 2, 3], max_new_tokens=2)
        server.chat(1, prompt_ids=[4, 5, 6], max_new_tokens=2)
        # Each conversation holds only its own tokens; the system prompt
        # contributes exactly once.
        expected = len(SYSTEM) + 2 * (3 + 2)
        assert server.manager.gpu_resident_tokens == expected

    def test_system_state_never_evicted(self, config):
        server = make_server(config, shared=True, gpu=160, cpu=96)
        rng = np.random.default_rng(41)
        for rnd in range(3):
            for conv in range(4):
                server.chat(
                    conv,
                    prompt_ids=list(rng.integers(4, 120, 8)),
                    max_new_tokens=4,
                )
        system = server.manager.conversation(server.SYSTEM_CONV_ID)
        assert system.pinned
        from repro.kvcache.chunks import ChunkLocation

        assert system.tokens_in(ChunkLocation.GPU) == len(SYSTEM)

    def test_system_prompt_is_cached_once(self, config):
        """The prompt's tokens are cached once, under the reserved id."""
        shared = make_server(config, shared=True)
        assert shared.context_length(shared.SYSTEM_CONV_ID) == len(SYSTEM)
        plain = make_server(config, shared=False)
        assert plain.context_length(plain.SYSTEM_CONV_ID) == 0


class TestValidation:
    def test_must_set_before_chats(self, config):
        server = make_server(config, shared=False)
        server.chat(0, prompt_ids=[1, 2], max_new_tokens=2)
        with pytest.raises(RuntimeError):
            server.set_system_prompt(prompt_ids=SYSTEM)

    def test_cannot_set_twice(self, config):
        server = make_server(config, shared=True)
        with pytest.raises(RuntimeError):
            server.set_system_prompt(prompt_ids=[1, 2])

    def test_empty_prompt_rejected(self, config):
        server = make_server(config, shared=False)
        with pytest.raises(ValueError):
            server.set_system_prompt(prompt_ids=[])

    def test_reserved_conv_id_rejected(self, config):
        server = make_server(config, shared=True)
        with pytest.raises(ValueError):
            server.chat(server.SYSTEM_CONV_ID, prompt_ids=[1], max_new_tokens=1)
