"""Tests for the roofline cost model."""

from dataclasses import replace

import numpy as np
import pytest

from repro.gpu import A100_80GB, BatchShape, CostModel, KernelVariant
from repro.gpu.costmodel import causal_attention_flop_tokens
from repro.model import LLAMA2_13B, OPT_13B, OPT_66B


@pytest.fixture
def cm():
    return CostModel(OPT_13B, A100_80GB)


class TestBatchShape:
    def test_uniform(self):
        shape = BatchShape.uniform(4, 8, 100)
        assert len(shape) == 4
        assert shape.total_query_tokens == 32

    def test_of_accepts_iterables(self):
        shape = BatchShape.of([(1, 10), [2, 20]])
        assert shape.items == ((1, 10), (2, 20))

    def test_rejects_query_longer_than_context(self):
        with pytest.raises(ValueError, match=r"query_len 11 exceeds context_len 10"):
            BatchShape.of([(11, 10)])

    def test_rejects_negative(self):
        # (0, -1) also has its query longer than its context: the
        # negative length is the refusal it names.
        for item in [(-1, 10), (0, -1)]:
            with pytest.raises(ValueError, match=r"negative batch item"):
                BatchShape.of([item])

    def test_rejects_fractional_counts(self):
        """``(1.5, 3.0)`` used to be accepted: the integer flop-token sum
        floor-divided it to 3.25 where ``causal_attention_flop_tokens``
        says 4.125, and ``of`` truncated 1.9 to 1."""
        for item in [(1.5, 3.0), (1.9, 4), (2, 3.0), (1, float("nan"))]:
            with pytest.raises(TypeError, match=r"not whole numbers"):
                BatchShape((item,))
            with pytest.raises(TypeError, match=r"not whole numbers"):
                BatchShape.of([item])
        with pytest.raises(TypeError, match=r"not whole numbers"):
            BatchShape(decode_contexts=[4, 2.5])

    def test_numpy_integers_pass(self):
        shape = BatchShape.of([(np.int64(2), np.int32(5))])
        assert shape.items == ((2, 5),) and type(shape.items[0][0]) is int
        summed = BatchShape(decode_contexts=np.array([3, 4], dtype=np.int64))
        assert summed.context_tokens == 7 and type(summed.context_tokens) is int


class TestCausalFlopTokens:
    def test_single_token(self):
        # One token attending to a 100-token context: exactly 100.
        assert causal_attention_flop_tokens(1, 100) == 100.0

    def test_full_causal_prefill(self):
        # q == c == n: sum of 1..n.
        assert causal_attention_flop_tokens(4, 4) == 1 + 2 + 3 + 4

    def test_chunk_at_end_of_context(self):
        # 2 tokens at the end of a 10-token context: attend to 9 and 10.
        assert causal_attention_flop_tokens(2, 10) == 19.0

    def test_zero_query(self):
        assert causal_attention_flop_tokens(0, 50) == 0.0


class TestLinearTime:
    def test_zero_tokens_is_free(self, cm):
        assert cm.linear_time(0) == 0.0

    def test_monotone_in_tokens(self, cm):
        times = [cm.linear_time(n) for n in (1, 32, 256, 2048)]
        assert times == sorted(times)
        assert times[0] > 0

    def test_memory_bound_floor_at_small_batch(self, cm):
        """Decoding one token is dominated by streaming the weights."""
        t1 = cm.linear_time(1)
        t2 = cm.linear_time(2)
        # Both are memory-bound on the same weight traffic -> nearly equal.
        assert t2 < 1.5 * t1

    def test_compute_bound_scaling_at_large_batch(self, cm):
        """In the compute-bound regime time scales ~linearly with tokens."""
        t4k = cm.linear_time(4096)
        t8k = cm.linear_time(8192)
        assert t8k == pytest.approx(2 * t4k, rel=0.1)

    def test_fusion_factor_speeds_up(self):
        base = CostModel(OPT_13B, A100_80GB).linear_time(4096)
        fused = CostModel(OPT_13B, A100_80GB, fusion_factor=0.8).linear_time(4096)
        assert fused < base

    def test_invalid_fusion_factor(self):
        with pytest.raises(ValueError):
            CostModel(OPT_13B, A100_80GB, fusion_factor=0.0)

    def test_tensor_parallel_is_faster_per_gpu_batch(self):
        single = CostModel(replace(OPT_66B, num_gpus=1), A100_80GB).linear_time(4096)
        quad = CostModel(OPT_66B, A100_80GB).linear_time(4096)
        assert quad < single
        # ...but not 4x faster: the all-reduce takes its cut.
        assert quad > single / 4


class TestAttentionTime:
    def test_linear_in_context_size(self, cm):
        """Figure 4: attention cost for a fixed chunk grows linearly."""
        t = [cm.attention_chunk_time(32, c) for c in (2048, 4096, 8192)]
        g1 = t[1] - t[0]
        g2 = t[2] - t[1]
        assert g2 == pytest.approx(2 * g1, rel=0.15)

    def test_pensieve_matches_ideal(self, cm):
        """§6.4: the multi-token paged kernel matches (slightly beats)
        the ideal contiguous kernel."""
        shape = BatchShape.uniform(32, 8, 4096)
        ideal = cm.attention_time(shape, KernelVariant.IDEAL_CONTIGUOUS)
        pensieve = cm.attention_time(shape, KernelVariant.PENSIEVE_PAGED)
        assert pensieve <= ideal
        assert pensieve > 0.9 * ideal

    def test_copyout_overhead_grows_with_context(self, cm):
        """Figure 12: copy-out cost is proportional to past KV-tokens."""
        ratios = []
        for ctx in (1024, 4096, 16384):
            shape = BatchShape.uniform(32, 8, ctx)
            ideal = cm.attention_time(shape, KernelVariant.IDEAL_CONTIGUOUS)
            copyout = cm.attention_time(shape, KernelVariant.COPYOUT)
            ratios.append(copyout / ideal)
        assert all(r > 1.3 for r in ratios)

    def test_multiround_scales_with_query_len(self, cm):
        """Figure 12: multi-round PagedAttention is linear in prompt length."""
        t8 = cm.attention_time(
            BatchShape.uniform(32, 8, 4096), KernelVariant.MULTIROUND_PAGED
        )
        t1 = cm.attention_time(
            BatchShape.uniform(32, 1, 4096), KernelVariant.MULTIROUND_PAGED
        )
        assert t8 == pytest.approx(8 * t1, rel=0.2)
        ideal8 = cm.attention_time(
            BatchShape.uniform(32, 8, 4096), KernelVariant.IDEAL_CONTIGUOUS
        )
        assert t8 > 3 * ideal8

    def test_gqa_reduces_attention_memory_traffic(self):
        """Llama 2-13B reads 4x less KV per context token than OPT-13B."""
        opt = CostModel(OPT_13B, A100_80GB)
        llama = CostModel(LLAMA2_13B, A100_80GB)
        shape = BatchShape.uniform(32, 1, 8192)  # decode: memory-bound
        assert llama.attention_time(shape) < 0.5 * opt.attention_time(shape)


class TestIterationTime:
    def test_empty_batch_free(self, cm):
        assert cm.iteration_time(BatchShape.of([])) == 0.0

    def test_includes_step_overhead(self, cm):
        t = cm.iteration_time(BatchShape.uniform(1, 1, 1))
        assert t >= cm.spec.step_overhead

    def test_swap_in_pipelining_hides_small_transfers(self, cm):
        compute = cm.iteration_time(BatchShape.uniform(32, 1, 2048))
        transfer = compute * 0.2
        pipelined = CostModel.pipelined_time(compute, transfer, cm.config.num_layers)
        # Pipelined: mostly hidden, where blocking serializes the two.
        assert pipelined < compute + transfer
        assert pipelined < compute * 1.1

    def test_huge_transfer_dominates_even_pipelined(self, cm):
        compute = cm.iteration_time(BatchShape.uniform(1, 1, 128))
        transfer = compute * 10
        pipelined = CostModel.pipelined_time(compute, transfer, cm.config.num_layers)
        assert pipelined >= transfer

    def test_pipelined_time_closed_form(self):
        # Tc dominates.
        assert CostModel.pipelined_time(1.0, 0.1, 10) == pytest.approx(1.01)
        # Tt dominates.
        assert CostModel.pipelined_time(0.1, 1.0, 10) == pytest.approx(1.01)
        with pytest.raises(ValueError):
            CostModel.pipelined_time(1.0, 1.0, 0)


class TestFigureShapes:
    def test_fig3_prefill_overtakes_generation(self, cm):
        """Figure 3: with growing history, recomputing the history makes
        prefill outgrow 200 generation steps."""
        generation = cm.generation_time(32, 232, 200)
        prefill_small = cm.prefill_time(32, 200, 0)
        # Stateless prefill must reprocess history as prompt tokens.
        prefill_big = cm.prefill_time(32, 200 + 12000, 0)
        assert prefill_small < generation
        assert prefill_big > generation

    def test_fig4_attention_crosses_nonattention(self, cm):
        """Figure 4: normalized attention cost passes 1.0 at a few
        thousand tokens of context."""
        norm = cm.non_attention_chunk_time(32)
        small = cm.attention_chunk_time(32, 256) / norm
        large = cm.attention_chunk_time(32, 16384) / norm
        assert small < 1.0
        assert large > 1.0
