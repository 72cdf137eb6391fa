"""Tests for arrival processes, the tokenizer and the conversation driver."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.engine import PensieveEngine
from repro.experiments.common import run_serving_once
from repro.serving import make_vllm
from repro.sim import EventLoop
from repro.workload import (
    ConversationDriver,
    SimpleTokenizer,
    exponential_think_times,
    poisson_arrivals,
)

from tests.serving.conftest import TINY, scripted_conversation, spec_with_capacity


class TestPoissonArrivals:
    def test_strictly_increasing(self):
        times = poisson_arrivals(np.random.default_rng(0), rate=2.0, count=100)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_mean_gap_matches_rate(self):
        times = poisson_arrivals(np.random.default_rng(0), rate=4.0, count=5000)
        gaps = np.diff([0.0] + times)
        assert np.mean(gaps) == pytest.approx(0.25, rel=0.1)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_arrivals(rng, rate=0.0, count=5)
        with pytest.raises(ValueError):
            poisson_arrivals(rng, rate=1.0, count=-1)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="finite"):
            poisson_arrivals(np.random.default_rng(0), rate=rate, count=5)


class TestThinkTimes:
    def test_mean(self):
        times = exponential_think_times(np.random.default_rng(0), 60.0, 5000)
        assert np.mean(times) == pytest.approx(60.0, rel=0.1)

    def test_zero_mean_gives_zeros(self):
        assert exponential_think_times(np.random.default_rng(0), 0.0, 3) == [0.0] * 3

    def test_empty(self):
        assert exponential_think_times(np.random.default_rng(0), 60.0, 0) == []

    @pytest.mark.parametrize("mean", [float("nan"), float("inf")])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(ValueError, match="finite"):
            exponential_think_times(np.random.default_rng(0), mean, 3)


class TestTokenizer:
    def test_round_trip(self):
        tok = SimpleTokenizer()
        ids = tok.encode("Hello, world! Hello again")
        assert tok.decode(ids) == "hello , world ! hello again"

    def test_same_word_same_id(self):
        tok = SimpleTokenizer()
        a = tok.encode("cache")
        b = tok.encode("cache cache")
        assert b == a * 2

    def test_vocab_overflow_maps_to_unk(self):
        tok = SimpleTokenizer(vocab_size=8)
        tok.encode("a b c d")  # fills 4..7
        ids = tok.encode("zebra")
        assert ids == [SimpleTokenizer.UNK]

    def test_reserved_ids(self):
        tok = SimpleTokenizer()
        assert tok.decode([0, 1, 2, 3]) == "<pad> <bos> <eos> <unk>"

    def test_min_vocab(self):
        with pytest.raises(ValueError):
            SimpleTokenizer(vocab_size=4)


class TestConversationDriver:
    def factory(self):
        return lambda loop: make_vllm(loop, TINY, spec_with_capacity(2048))

    def test_runs_all_turns(self):
        loop = EventLoop()
        engine = self.factory()(loop)
        convs = [scripted_conversation(i, [(5, 3), (4, 2)]) for i in range(3)]
        driver = ConversationDriver(loop, engine, convs)
        driver.run()
        assert driver.outstanding == 0
        assert len(engine.metrics) == 6

    def test_think_time_delays_next_turn(self):
        loop = EventLoop()
        engine = self.factory()(loop)
        conv = scripted_conversation(0, [(5, 3), (4, 2)], think=100.0)
        ConversationDriver(loop, engine, [conv]).run()
        first, second = engine.metrics.records
        assert second.arrival_time >= first.finish_time + 100.0

    def test_horizon_cuts_off(self):
        loop = EventLoop()
        engine = self.factory()(loop)
        conv = scripted_conversation(0, [(5, 3), (4, 2)], think=1000.0)
        driver = ConversationDriver(loop, engine, [conv])
        driver.run(until=10.0)
        assert len(engine.metrics) == 1
        assert driver.outstanding == 1

    def test_double_registration_rejected(self):
        loop = EventLoop()
        engine = self.factory()(loop)
        ConversationDriver(loop, engine, [])
        with pytest.raises(RuntimeError):
            ConversationDriver(loop, engine, [])

    def test_served_engine_is_freed_without_the_collector(self):
        """The engine's finish hook must not hold the driver after the
        run: with the cyclic collector off, the engine
        ``run_serving_once`` returns (manager, metrics, loop) is freed
        as soon as it is dropped."""
        convs = [scripted_conversation(i, [(5, 3), (4, 2)]) for i in range(3)]
        gc.disable()
        try:
            engine, stats = run_serving_once(
                lambda loop: PensieveEngine(loop, TINY, spec_with_capacity(2048)),
                convs,
            )
            assert stats.num_requests == 6
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            gc.enable()

    def test_horizon_cut_engine_is_freed_without_the_collector(self):
        """A run cut by ``until`` leaves events queued (a pending
        completion, later turns' submissions) that hold bound methods of
        the engine and its ``ConversationDriver``; ``run_serving_once``
        drops them, so the returned engine is freed as soon as it is
        dropped."""
        convs = [
            scripted_conversation(i, [(5, 30), (4, 20)], start=0.01 * i, think=1.0)
            for i in range(3)
        ]
        gc.disable()
        try:
            engine, _ = run_serving_once(
                lambda loop: PensieveEngine(loop, TINY, spec_with_capacity(2048)),
                convs,
                until=1.1,
            )
            assert len(engine.metrics) == 3  # the second turns are in flight
            assert engine.loop.pending == 0
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            gc.enable()
