"""Tests for the shared engine machinery (EngineBase, BatchConfig)."""

from typing import List, Sequence

import pytest

from repro.gpu import A100_80GB, CostModel
from repro.gpu.costmodel import BatchShape
from repro.model import tiny_opt_config
from repro.obs import Tracer
from repro.serving import BatchConfig
from repro.serving.engine import EngineBase
from repro.serving.request import Request, RequestState
from repro.sim import EventLoop

from tests.serving.conftest import scripted_conversation


class MiniEngine(EngineBase):
    """Minimal concrete engine: everything runs, one token per step."""

    def __init__(self, loop, step_time=0.01, **kwargs):
        cost_model = CostModel(tiny_opt_config(), A100_80GB)
        super().__init__("mini", loop, cost_model, **kwargs)
        self.step_time = step_time
        self.batches: List[int] = []

    def _form_batch(self, now):
        while self.wait_queue:
            request = self.wait_queue.popleft()
            request.state = RequestState.RUNNING
            self.running.append(request)
        self.batches.append(len(self.running))
        return list(self.running)

    def _execute(self, batch, now):
        return self.step_time

    def _on_finish(self, request, now):
        pass


def submit_requests(engine, loop, specs):
    requests = []
    for i, (arrival, outputs) in enumerate(specs):
        request = Request(
            request_id=i,
            conversation=scripted_conversation(i, [(4, outputs)]),
            turn_index=0,
            arrival_time=arrival,
        )
        loop.schedule(arrival, engine.submit, request)
        requests.append(request)
    return requests


class TestServingLoop:
    def test_single_request_lifecycle(self):
        loop = EventLoop()
        engine = MiniEngine(loop)
        (request,) = submit_requests(engine, loop, [(0.0, 3)])
        loop.run()
        assert request.state is RequestState.FINISHED
        assert request.generated_tokens == 3
        assert request.finish_time == pytest.approx(0.03)
        assert request.first_token_time == pytest.approx(0.01)

    def test_iteration_level_join(self):
        """A request arriving mid-flight joins at the next iteration."""
        loop = EventLoop()
        engine = MiniEngine(loop)
        submit_requests(engine, loop, [(0.0, 5), (0.015, 3)])
        loop.run()
        # Second request joined while the first was running: some batches
        # contain both.
        assert 2 in engine.batches
        assert len(engine.metrics) == 2

    def test_engine_idles_between_bursts(self):
        loop = EventLoop()
        engine = MiniEngine(loop)
        submit_requests(engine, loop, [(0.0, 2), (10.0, 2)])
        loop.run()
        records = engine.metrics.records
        assert records[0].finish_time == pytest.approx(0.02)
        assert records[1].finish_time == pytest.approx(10.02)

    def test_iterations_counted(self):
        loop = EventLoop()
        engine = MiniEngine(loop)
        submit_requests(engine, loop, [(0.0, 4)])
        loop.run()
        assert engine.iterations == 4

    def test_on_finish_callback_invoked(self):
        loop = EventLoop()
        engine = MiniEngine(loop)
        finished = []
        engine.on_finish = lambda request, now: finished.append(
            (request.request_id, now)
        )
        submit_requests(engine, loop, [(0.0, 2)])
        loop.run()
        assert finished == [(0, pytest.approx(0.02))]

    def test_trace_records_iterations(self):
        loop = EventLoop()
        engine = MiniEngine(loop)
        tracer = Tracer()
        engine.set_tracer(tracer)
        submit_requests(engine, loop, [(0.0, 2)])
        loop.run()
        (request_span,) = tracer.spans_named("request")
        assert request_span.attrs["outcome"] == "finished"
        assert len(tracer.spans_named("iteration")) == engine.iterations == 2
        assert tracer.counter("requests.finished") == 1


class TestBatchConfig:
    def test_defaults_match_paper(self):
        cfg = BatchConfig()
        assert cfg.swap_out_threshold == 0.25   # §4.3.2
        assert cfg.generation_reserve == 0.10   # §4.3.5
        assert cfg.max_context == 16384         # §6.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_tokens": 0},
            {"max_running": 0},
            {"swap_out_threshold": 1.0},
            {"swap_out_threshold": -0.1},
            {"generation_reserve": 1.0},
            {"max_context": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BatchConfig(**kwargs)
