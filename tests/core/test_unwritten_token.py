"""A turn's last token: its KV slot is allocated, its K/V left unwritten.

``chat_batch`` grows every member by its last generated token's slot but
runs no forward for it (the forward would only write K/V, its logits
discarded).  The conversation's next prefill feeds that token as one more
input row, ahead of the new prompt and at its own position, so a turn of
N tokens runs one prefill and N - 1 decode forwards.  These tests pin
that the next prefill fills the slot as a from-scratch prefill would,
that the token is fed exactly once, how many forwards a turn runs, how
the mark survives failures, and — as a property walk under swap-outs,
drops and armed ``CPU_READ`` corruption — that transcripts still equal an
unlimited-memory server's.
"""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import StatefulChatServer
from repro.core import server as server_module
from repro.faults import FaultPlan, FaultSite
from repro.kvcache import KVStorage
from repro.model import tiny_llama_config, tiny_opt_config
from repro.model.transformer import DecodeRequest, ForwardRequest, PagedTransformer

# CI arms one extra seed per chaos matrix entry via this env var.
_EXTRA = os.environ.get("CHAOS_EXTRA_SEED")
WALK_SEEDS = [0, 1] + ([int(_EXTRA)] if _EXTRA else [])

#: The float64 bound of the stateful-equals-stateless model tests, and
#: the float32 bound of the transformer fast-path tests.
FLOAT64_TOL = dict(rtol=1e-9, atol=1e-9)
FLOAT32_TOL = dict(rtol=0, atol=2e-5)


@pytest.fixture(params=["opt", "llama"])
def config(request):
    return tiny_opt_config() if request.param == "opt" else tiny_llama_config()


def make_server(config, gpu=512, cpu=1024, dtype=None, **kwargs):
    server = StatefulChatServer(
        config, gpu_capacity_tokens=gpu, cpu_capacity_tokens=cpu,
        chunk_size=16, page_size=8, seed=0, **kwargs,
    )
    if dtype is not None:
        server.storage = KVStorage(
            config, num_slots=server.pool.capacity_tokens, dtype=dtype
        )
        server.model = PagedTransformer(config, server.storage, seed=0)
    return server


def record_forwards(server):
    """Wrap ``server.model.forward``; returns the list of batches it saw."""
    batches = []
    forward = server.model.forward

    def observed(batch):
        batches.append(list(batch))
        return forward(batch)

    server.model.forward = observed
    return batches


def is_decode(batch):
    return all(request.num_new_tokens == 1 for request in batch)


def prompt(conv, turn, n, vocab):
    return [(13 * conv + 7 * turn + i) % vocab for i in range(n)]


def assert_same_written_kv(server, reference, conv):
    """A GPU-resident conversation's K/V at every written slot (all but
    its unwritten last one) equals the reference server's."""
    written = len(reference.raw_tokens[conv]) - 1
    mine = server._tables[conv].slots_array(0, written)
    theirs = reference._tables[conv].slots_array(0, written)
    for got, want in ((server.storage.k, reference.storage.k),
                      (server.storage.v, reference.storage.v)):
        np.testing.assert_allclose(got[:, mine], want[:, theirs], **FLOAT32_TOL)


class TestNextPrefillWritesTheSlot:
    @pytest.mark.parametrize("swapped", [False, True], ids=["resident", "swapped"])
    def test_history_kv_equals_a_from_scratch_prefill(self, config, swapped):
        """After the next prefill, every history slot — the carried
        token's included, even when its stale bytes went to the CPU store
        and back — holds the K/V a from-scratch prefill computes."""
        vocab = config.vocab_size
        server = make_server(config, gpu=96, cpu=512, dtype=np.float64)
        server.chat(0, prompt_ids=prompt(0, 0, 13, vocab), max_new_tokens=5)
        assert 0 in server._unwritten
        if swapped:
            server.chat(1, prompt_ids=prompt(1, 0, 80, vocab), max_new_tokens=3)
        # A one-token turn runs only the prefill.
        server.chat(0, prompt_ids=prompt(0, 1, 6, vocab), max_new_tokens=1)
        if swapped:
            assert server.manager.stats["cpu_hit_tokens"] > 0
        history = server.raw_tokens[0][:-1]  # the new last slot is unwritten
        slots = server._tables[0].slots_array(0, len(history))

        storage = KVStorage(config, num_slots=len(history), dtype=np.float64)
        scratch = PagedTransformer(config, storage, seed=0)
        scratch.forward([ForwardRequest(history, list(range(len(history))))])
        np.testing.assert_allclose(server.storage.k[:, slots], storage.k, **FLOAT64_TOL)
        np.testing.assert_allclose(server.storage.v[:, slots], storage.v, **FLOAT64_TOL)


class TestCarriedTokenIsFedOnce:
    def test_resident_history_feeds_it_ahead_of_the_prompt(self, config):
        vocab = config.vocab_size
        server = make_server(config)
        first = prompt(0, 0, 9, vocab)
        out = server.chat(0, prompt_ids=first, max_new_tokens=3)
        batches = record_forwards(server)
        second = prompt(0, 1, 4, vocab)
        server.chat(0, prompt_ids=second, max_new_tokens=2)
        (request,) = batches[0]
        assert request.input_ids.tolist() == [out[-1]] + second
        assert request.dropped == 0
        history = len(first) + len(out)
        assert request.positions.tolist() == list(range(history - 1, history + 4))

    def test_whole_history_recompute_feeds_it_once(self, config):
        """A dropped prefix covering the whole history already holds the
        token: the prefill's input is the history plus the prompt."""
        vocab = config.vocab_size
        server = make_server(config, gpu=64, cpu=0)
        server.chat(0, prompt_ids=prompt(0, 0, 10, vocab), max_new_tokens=6)
        server.chat(1, prompt_ids=prompt(1, 0, 50, vocab), max_new_tokens=4)
        assert server.placement(0) == {"dropped": 16}
        history = list(server.raw_tokens[0])
        batches = record_forwards(server)
        second = prompt(0, 1, 5, vocab)
        server.chat(0, prompt_ids=second, max_new_tokens=2)
        (request,) = batches[0]
        assert request.input_ids.tolist() == history + second
        assert request.dropped == len(history)

    def test_partial_recompute_feeds_it_after_the_dropped_prefix(self, config):
        vocab = config.vocab_size
        server = make_server(config, gpu=64, cpu=0)
        server.chat(0, prompt_ids=prompt(0, 0, 14, vocab), max_new_tokens=6)
        server.chat(1, prompt_ids=prompt(1, 0, 42, vocab), max_new_tokens=4)
        assert server.placement(0) == {"dropped": 16, "gpu": 4}
        history = list(server.raw_tokens[0])
        batches = record_forwards(server)
        second = prompt(0, 1, 5, vocab)
        server.chat(0, prompt_ids=second, max_new_tokens=2)
        (request,) = batches[0]
        assert request.input_ids.tolist() == history[:16] + history[-1:] + second
        assert request.dropped == 16
        assert request.positions.tolist() == (
            list(range(16)) + list(range(len(history) - 1, len(history) + 5))
        )


class TestForwardsPerTurn:
    def test_one_token_turn_runs_no_decode_forward(self, config, monkeypatch):
        server = make_server(config)
        built = []
        monkeypatch.setattr(server_module, "DecodeRequest", built.append)
        batches = record_forwards(server)
        out = server.chat_batch([(0, [5, 6, 7]), (1, [8, 9])], max_new_tokens=1)
        assert [len(tokens) for tokens in out.values()] == [1, 1]
        assert len(batches) == 1 and not is_decode(batches[0])
        assert built == []
        assert server._unwritten == {0, 1}
        assert server.context_length(0) == 4 and server.context_length(1) == 3

    @pytest.mark.parametrize("use_fast_paths", [True, False], ids=["fast", "oracle"])
    @pytest.mark.parametrize("max_new_tokens", [1, 2, 3, 5])
    def test_decode_forwards_are_max_new_tokens_minus_one(
        self, config, max_new_tokens, use_fast_paths
    ):
        server = make_server(config, use_fast_paths=use_fast_paths)
        batches = record_forwards(server)
        for turn in range(3):
            del batches[:]
            prompts = [(c, prompt(c, turn, 4 + c, config.vocab_size)) for c in range(3)]
            out = server.chat_batch(prompts, max_new_tokens=max_new_tokens)
            assert all(len(tokens) == max_new_tokens for tokens in out.values())
            assert not is_decode(batches[0])
            assert len(batches) - 1 == max_new_tokens - 1
            assert all(is_decode(batch) for batch in batches[1:])
            if use_fast_paths:
                assert all(type(r) is DecodeRequest for b in batches[1:] for r in b)


class TestTheMarkAcrossFailures:
    @staticmethod
    def gpu_alloc_plan(*occurrences):
        return FaultPlan(seed=0, schedules={FaultSite.GPU_ALLOC: occurrences})

    def test_a_turn_failing_before_its_restore_keeps_the_mark(self, config):
        vocab = config.vocab_size
        # Turn 0 draws GPU_ALLOC three times (restore, two grows); turn
        # 1's restore draws 3, 4, 5 and 6 and fails terminally.
        server = make_server(config, fault_plan=self.gpu_alloc_plan(3, 4, 5, 6))
        reference = make_server(config)
        turns = [prompt(0, t, 6, vocab) for t in range(3)]
        assert server.chat(0, prompt_ids=turns[0], max_new_tokens=2) == (
            reference.chat(0, prompt_ids=turns[0], max_new_tokens=2)
        )
        history = list(server.raw_tokens[0])
        out = server.chat_batch([(0, turns[1])], max_new_tokens=2)
        assert out == {} and len(server.failures) == 1
        assert server._unwritten == {0} and server.raw_tokens[0] == history
        assert server.chat(0, prompt_ids=turns[2], max_new_tokens=3) == (
            reference.chat(0, prompt_ids=turns[2], max_new_tokens=3)
        )

    def test_an_aborted_conversation_forgets_the_mark(self, config):
        vocab = config.vocab_size
        # Turn 1's restore draws 3; its first grow draws 4-7 and aborts.
        server = make_server(config, fault_plan=self.gpu_alloc_plan(4, 5, 6, 7))
        server.chat(0, prompt_ids=prompt(0, 0, 6, vocab), max_new_tokens=2)
        assert server.chat_batch([(0, prompt(0, 1, 6, vocab))], 2) == {}
        assert 0 not in server._unwritten and 0 not in server.raw_tokens
        batches = record_forwards(server)
        fresh = prompt(0, 2, 6, vocab)
        out = server.chat(0, prompt_ids=fresh, max_new_tokens=3)
        assert batches[0][0].input_ids.tolist() == fresh
        assert out == make_server(config).chat(0, prompt_ids=fresh, max_new_tokens=3)


# One walk step: ("turn", conversations, prompt length, new tokens)
# serves a batch on both servers; between turns, the tight server alone
# copies ``tokens`` GPU tokens out and reclaims their pages ("swap_out"),
# or drops ``tokens`` CPU tokens ("drop").
_TURN = st.tuples(
    st.just("turn"),
    st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
    st.integers(1, 12),
    st.integers(1, 4),
)
_EVICT = st.tuples(st.sampled_from(["swap_out", "drop"]), st.integers(1, 96))
_WALK = st.lists(st.one_of(_TURN, _EVICT), min_size=1, max_size=10)


#: A walk that swaps, drops, recomputes and carries tokens out of every
#: kind of context, whatever examples the search draws.
_THOROUGH = [
    ("turn", [0, 1], 12, 3), ("swap_out", 96), ("turn", [0], 5, 2),
    ("turn", [1, 2], 8, 4), ("swap_out", 96), ("drop", 40),
    ("turn", [0, 1], 6, 1), ("turn", [2, 3], 9, 2), ("swap_out", 96),
    ("turn", [2, 0], 4, 3), ("swap_out", 96), ("turn", [1, 3], 7, 2),
]


@pytest.mark.parametrize("seed", WALK_SEEDS)
@settings(max_examples=15)
@given(arch=st.sampled_from(["opt", "llama"]), walk=_WALK)
@example(arch="opt", walk=_THOROUGH)
@example(arch="llama", walk=_THOROUGH)
def test_walk_under_swaps_drops_and_corruption_matches_unlimited(seed, arch, walk):
    config = tiny_opt_config() if arch == "opt" else tiny_llama_config()
    plan = FaultPlan(seed=seed, rates={FaultSite.CPU_READ: 0.3})
    tight = make_server(config, gpu=512, cpu=128, fault_plan=plan)
    roomy = make_server(config, gpu=4096, cpu=4096)
    manager = tight.manager
    for step, op in enumerate(walk):
        if op[0] == "swap_out":
            manager.swap_out(op[1], tight._clock)
            tight._flush_pending_copies()
            manager.reclaim(op[1], tight._clock)
        elif op[0] == "drop":
            manager.drop_from_cpu(op[1], tight._clock)
        else:
            _, convs, n, new = op
            prompts = [(c, prompt(c, step, n + c, config.vocab_size)) for c in convs]
            assert tight.chat_batch(prompts, new) == roomy.chat_batch(prompts, new)
            assert not tight.failures
            for conv in convs:  # no corrupt byte reached the GPU
                assert_same_written_kv(tight, roomy, conv)
        manager._audit()
    assert tight.raw_tokens == roomy.raw_tokens
    assert tight._unwritten == roomy._unwritten == set(roomy.raw_tokens)
