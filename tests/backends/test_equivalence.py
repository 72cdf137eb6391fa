"""Backend equivalence: the fast paths are numerically the oracle's model.

Two layers of proof: kernel-level (the backend's decode loop and its
prefill/mixed entry points against the per-request oracle) and
serving-level (a fast-path :class:`StatefulChatServer` produces
transcripts token-identical to the ``use_fast_paths=False`` oracle's for
the same workload).
"""

import numpy as np
import pytest

from repro.backends import Backend
from repro.core.server import StatefulChatServer
from repro.kernels import (
    AttentionRequest,
    DecodeSlotSource,
    multi_token_attention,
    single_token_attention,
)
from repro.kvcache.pages import BlockTable, PagePool
from repro.model.config import tiny_opt_config

TOLERANCE = 1e-6


def _decode_loop(batch, ctx, steps, num_heads, kv_heads, head_dim):
    """Run a serving-shaped decode loop through the backend's cache +
    kernel stack; returns (outs, oracle_outs)."""
    backend = Backend()
    rng = np.random.default_rng(0)
    page_size = 16
    tokens = ctx + steps
    pool = PagePool(batch * -(-tokens // page_size), page_size)
    keys = rng.standard_normal((batch, tokens, kv_heads, head_dim))
    vals = rng.standard_normal((batch, tokens, kv_heads, head_dim))
    queries = rng.standard_normal((steps, batch, num_heads, head_dim))
    k_cache = np.zeros((pool.capacity_tokens, kv_heads, head_dim))
    v_cache = np.zeros((pool.capacity_tokens, kv_heads, head_dim))
    tables = []
    for i in range(batch):
        table = BlockTable(pool)
        table.append_tokens(ctx)
        slots = table.slots_array(0, ctx)
        k_cache[slots] = keys[i, :ctx]
        v_cache[slots] = vals[i, :ctx]
        tables.append(table)
    cache = backend.create_decode_cache()
    sources = [DecodeSlotSource(t) for t in tables]
    outs, oracle = [], []
    for step in range(steps):
        pos = ctx + step
        for i, table in enumerate(tables):
            table.append_tokens(1)
            slot = table.slot(pos)
            k_cache[slot] = keys[i, pos]
            v_cache[slot] = vals[i, pos]
        packed = cache.pack(sources)
        outs.append(
            backend.decode_attention(queries[step], packed, 0, k_cache, v_cache)
        )
        requests = [
            AttentionRequest(
                query=queries[step, i : i + 1],
                slots=table.slots_array(0, table.length),
            )
            for i, table in enumerate(tables)
        ]
        oracle.append(
            np.concatenate(single_token_attention(requests, k_cache, v_cache))
        )
    return outs, oracle


class TestKernelMatrix:
    def test_decode_loop_matches_per_request_oracle(self):
        outs, oracle = _decode_loop(4, 48, 6, 8, 2, 16)
        for got, want in zip(outs, oracle):
            assert np.abs(got - want).max() <= TOLERANCE

    def test_prefill_and_mixed_entry_points_match_oracle(self):
        backend = Backend()
        rng = np.random.default_rng(1)
        num_slots = 96
        k_cache = rng.standard_normal((num_slots, 2, 16))
        v_cache = rng.standard_normal((num_slots, 2, 16))
        perm = rng.permutation(num_slots)
        used = 0
        requests = []
        for q_len, ctx in [(6, 24), (4, 24), (1, 24), (1, 24)]:
            slots = list(perm[used : used + ctx])
            used += ctx
            requests.append(
                AttentionRequest(
                    query=rng.standard_normal((q_len, 8, 16)), slots=slots
                )
            )
        oracle = multi_token_attention(requests, k_cache, v_cache)
        for entry in (backend.multi_token_attention, backend.ragged_attention):
            got = entry(requests, k_cache, v_cache)
            for g, w in zip(got, oracle):
                assert np.abs(g - w).max() <= TOLERANCE


class TestServingMatrix:
    ABUNDANT = dict(gpu_capacity_tokens=1 << 12, cpu_capacity_tokens=1 << 12)
    #: Tight enough that rounds swap context out to the CPU tier and back
    #: into different pages, so the decode cache must never serve a row
    #: packed before the move.
    STARVED = dict(gpu_capacity_tokens=160, cpu_capacity_tokens=640)

    def _transcripts(self, caps, **kwargs):
        config = tiny_opt_config()
        server = StatefulChatServer(
            config, chunk_size=16, page_size=8, seed=0, **caps, **kwargs
        )
        rounds = []
        for turn, convs in enumerate(([0, 1, 2, 3], [3, 1], [2, 0, 3], [1, 2])):
            prompts = [
                (c, [(c * 13 + turn * 7 + i) % config.vocab_size for i in range(9)])
                for c in convs
            ]
            rounds.append(server.chat_batch(prompts, max_new_tokens=12))
        # The single-conversation entry point runs its own decode loop.
        for turn in range(2):
            prompt = [(turn * 5 + i) % config.vocab_size for i in range(11)]
            rounds.append(server.chat(0, prompt_ids=prompt, max_new_tokens=6))
        return rounds, server

    @pytest.mark.parametrize("caps", [ABUNDANT, STARVED], ids=["abundant", "starved"])
    def test_transcripts_match_oracle(self, caps):
        fast, server = self._transcripts(caps, backend="paged")
        oracle, _ = self._transcripts(caps, use_fast_paths=False)
        assert fast == oracle
        assert server.model.decode_cache.stats["extended_rows"] > 0
        if caps is self.STARVED:
            assert server.manager.stats["swapped_out_tokens"] > 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend 'paged-ring'"):
            StatefulChatServer(tiny_opt_config(), backend="paged-ring", chunk_size=16)
