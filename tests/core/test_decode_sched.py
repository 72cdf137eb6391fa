"""Tests for page-aware ``chat_batch`` ordering.

The ordering is a pure work-mover (token-identity against the per-request
oracle is pinned in ``tests/backends/test_equivalence.py``); what it buys
is that packing-cache occupants keep their rows across turns.
"""

from repro.core import StatefulChatServer
from repro.model import tiny_opt_config


def _prompt(conv, turn, length, vocab):
    return [(conv * 13 + turn * 7 + i) % vocab for i in range(length)]


class TestPageAwareOrdering:
    def test_cache_row_occupants_lead_the_batch(self):
        """Round 2 re-presents the same conversations in reversed order;
        the server restores row order so every row extends instead of
        rebuilding."""
        config = tiny_opt_config()
        server = StatefulChatServer(
            config, gpu_capacity_tokens=2048, cpu_capacity_tokens=2048, seed=0,
        )
        prompts = [
            (c, _prompt(c, 0, 9, config.vocab_size)) for c in range(4)
        ]
        server.chat_batch(prompts, max_new_tokens=6)
        rebuilt_after_round1 = server.model.decode_cache.stats["rebuilt_rows"]
        reversed_prompts = [
            (c, _prompt(c, 1, 9, config.vocab_size)) for c in reversed(range(4))
        ]
        server.chat_batch(reversed_prompts, max_new_tokens=6)
        assert (
            server.model.decode_cache.stats["rebuilt_rows"]
            == rebuilt_after_round1
        )
