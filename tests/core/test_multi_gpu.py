"""Tests for tensor-parallel (multi-GPU) serving (§4.4.2)."""

from dataclasses import replace

import pytest

from repro.core import PensieveEngine
from repro.gpu import A100_80GB, CostModel
from repro.gpu.costmodel import BatchShape
from repro.model import OPT_13B, OPT_66B
from repro.serving import make_vllm
from repro.sim import EventLoop
from repro.workload import ConversationDriver

from tests.serving.conftest import scripted_conversation


class TestCapacityScaling:
    def test_kv_capacity_scales_with_gpus(self):
        """Each GPU contributes its 40 GB KV reservation (§6.1)."""
        single = PensieveEngine(EventLoop(), replace(OPT_66B, num_gpus=1), A100_80GB)
        quad = PensieveEngine(EventLoop(), OPT_66B, A100_80GB)
        assert quad.manager.gpu_capacity_tokens == pytest.approx(
            4 * single.manager.gpu_capacity_tokens, rel=0.01
        )

    def test_cpu_capacity_scales_with_gpus(self):
        """220 GB of host memory per GPU (§6.1)."""
        single = PensieveEngine(EventLoop(), replace(OPT_66B, num_gpus=1), A100_80GB)
        quad = PensieveEngine(EventLoop(), OPT_66B, A100_80GB)
        assert quad.manager.cpu_capacity_tokens == pytest.approx(
            4 * single.manager.cpu_capacity_tokens, rel=0.01
        )

    def test_pcie_bandwidth_scales_with_gpus(self):
        """KV is sharded along the feature dimension, so each worker moves
        its slice over its own host link (§4.4.2)."""
        quad = PensieveEngine(EventLoop(), OPT_66B, A100_80GB)
        bandwidth = 4 * A100_80GB.pcie_bandwidth
        assert quad.pcie.bandwidth == pytest.approx(bandwidth)


class TestCostScaling:
    def test_tensor_parallel_speeds_up_iterations(self):
        shape = BatchShape.uniform(16, 1, 2048)
        single = CostModel(replace(OPT_66B, num_gpus=1), A100_80GB).iteration_time(shape)
        quad = CostModel(OPT_66B, A100_80GB).iteration_time(shape)
        assert quad < single
        # All-reduce overhead keeps the speedup below ideal 4x.
        assert quad > single / 4

    def test_66b_on_4gpus_comparable_to_13b_on_one(self):
        """The paper's setup scales GPUs with model size; per-iteration
        times stay within the same order of magnitude."""
        shape = BatchShape.uniform(16, 1, 1024)
        t13 = CostModel(OPT_13B, A100_80GB).iteration_time(shape)
        t66 = CostModel(OPT_66B, A100_80GB).iteration_time(shape)
        assert t66 < 4 * t13


class TestEndToEnd:
    def test_pensieve_serves_multi_gpu_model(self):
        convs = [
            scripted_conversation(i, [(16, 10), (8, 8)], think=2.0)
            for i in range(3)
        ]
        loop = EventLoop()
        engine = PensieveEngine(loop, OPT_66B, A100_80GB)
        driver = ConversationDriver(loop, engine, convs)
        driver.run(max_events=1_000_000)
        assert len(engine.metrics) == 6
        engine.manager._audit()

    def test_multi_gpu_gain_exceeds_single_gpu_gain(self):
        """§6.3 in miniature: the Pensieve/vLLM latency advantage on the
        66B/4-GPU model is at least as large as on 13B/1-GPU."""
        convs = [
            scripted_conversation(i, [(64, 30), (16, 30), (16, 30)], think=1.0)
            for i in range(6)
        ]

        def run(engine_factory):
            loop = EventLoop()
            engine = engine_factory(loop)
            ConversationDriver(loop, engine, convs).run(max_events=2_000_000)
            return engine.metrics.stats().mean_normalized_latency

        gains = {}
        for config in (OPT_13B, OPT_66B):
            vllm = run(lambda loop: make_vllm(loop, config, A100_80GB))
            pensieve = run(lambda loop: PensieveEngine(loop, config, A100_80GB))
            gains[config.name] = vllm / pensieve
        assert gains["OPT-66B"] >= gains["OPT-13B"] * 0.95
        assert gains["OPT-66B"] > 1.0
