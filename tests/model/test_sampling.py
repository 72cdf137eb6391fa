"""Tests for token sampling strategies."""

import numpy as np
import pytest

from repro.model.sampling import GREEDY, SamplingParams, sample_token, sample_tokens


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def logits_with_peak(vocab=32, peak=7, height=6.0, seed=1):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal(vocab)
    logits[peak] += height
    return logits


class TestParams:
    def test_greedy_default(self):
        assert GREEDY.is_greedy
        assert SamplingParams(temperature=0.7).is_greedy is False

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingParams(temperature=-0.1)
        with pytest.raises(ValueError):
            SamplingParams(top_k=-1)
        with pytest.raises(ValueError):
            SamplingParams(top_p=0.0)
        with pytest.raises(ValueError):
            SamplingParams(top_p=1.5)


class TestGreedy:
    def test_matches_argmax(self, rng):
        logits = logits_with_peak()
        assert sample_token(logits, GREEDY) == int(np.argmax(logits))

    def test_no_rng_needed(self):
        assert sample_token(np.array([0.0, 3.0, 1.0])) == 1


class TestTemperature:
    def test_deterministic_under_same_seed(self):
        logits = logits_with_peak()
        params = SamplingParams(temperature=1.0)
        a = [
            sample_token(logits, params, np.random.default_rng(5))
            for _ in range(1)
        ]
        b = [
            sample_token(logits, params, np.random.default_rng(5))
            for _ in range(1)
        ]
        assert a == b

    def test_low_temperature_concentrates_on_peak(self, rng):
        logits = logits_with_peak(height=4.0)
        params = SamplingParams(temperature=0.05)
        draws = [sample_token(logits, params, rng) for _ in range(50)]
        assert all(d == int(np.argmax(logits)) for d in draws)

    def test_high_temperature_spreads_mass(self, rng):
        logits = logits_with_peak(height=2.0)
        params = SamplingParams(temperature=50.0)
        draws = {sample_token(logits, params, rng) for _ in range(300)}
        assert len(draws) > 10  # close to uniform

    def test_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            sample_token(np.zeros(4), SamplingParams(temperature=1.0))


class TestTopK:
    def test_restricts_support(self, rng):
        logits = np.array([5.0, 4.0, 3.0, -10.0, -10.0])
        params = SamplingParams(temperature=5.0, top_k=2)
        draws = {sample_token(logits, params, rng) for _ in range(200)}
        assert draws <= {0, 1}

    def test_k_larger_than_vocab_is_noop(self, rng):
        logits = logits_with_peak(vocab=8)
        params = SamplingParams(temperature=1.0, top_k=100)
        for _ in range(20):
            assert 0 <= sample_token(logits, params, rng) < 8


class TestTopP:
    def test_nucleus_restricts_to_head(self, rng):
        # One token holds ~95% of the mass.
        logits = np.array([10.0, 0.0, 0.0, 0.0])
        params = SamplingParams(temperature=1.0, top_p=0.5)
        draws = {sample_token(logits, params, rng) for _ in range(100)}
        assert draws == {0}

    def test_at_least_one_token_kept(self, rng):
        logits = np.zeros(16)  # uniform: each token has mass 1/16
        params = SamplingParams(temperature=1.0, top_p=1e-6)
        token = sample_token(logits, params, rng)
        assert 0 <= token < 16


class TestServerIntegration:
    def test_stochastic_decoding_still_cache_invariant(self):
        """Sampling draws depend only on logits and the sampling stream, so
        the pressure-equivalence property must hold for stochastic
        decoding too."""
        from repro.core import StatefulChatServer
        from repro.model import tiny_opt_config

        params = SamplingParams(temperature=0.8, top_k=20)
        rng = np.random.default_rng(77)
        turns = [
            (conv, list(rng.integers(4, 120, int(rng.integers(5, 12)))))
            for _ in range(3)
            for conv in range(3)
        ]

        def run(gpu, cpu):
            server = StatefulChatServer(
                tiny_opt_config(), gpu_capacity_tokens=gpu,
                cpu_capacity_tokens=cpu, chunk_size=16, page_size=8, seed=1,
            )
            return [
                server.chat(c, prompt_ids=i, max_new_tokens=4, sampling=params)
                for c, i in turns
            ]

        assert run(gpu=160, cpu=96) == run(gpu=4096, cpu=8192)

    def test_vector_logits_required(self):
        with pytest.raises(ValueError):
            sample_token(np.zeros((2, 3)))


class TestSampleTokens:
    def test_greedy_is_each_rows_first_maximum(self):
        logits = np.random.default_rng(3).standard_normal((6, 16)).astype(np.float32)
        logits[1, [2, 9]] = logits[1].max() + 1.0  # a tie: the first wins
        logits[4, :] = 0.0  # all equal
        tokens = sample_tokens(logits)
        assert tokens == [int(np.argmax(row)) for row in logits]
        assert tokens[1] == 2 and tokens[4] == 0
        assert all(type(t) is int for t in tokens)

    def test_stochastic_draws_row_by_row_in_order(self):
        params = SamplingParams(temperature=0.8, top_k=5, top_p=0.9)
        logits = np.random.default_rng(4).standard_normal((5, 32))
        got = sample_tokens(logits, params, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        assert got == [sample_token(row, params, rng) for row in logits]
