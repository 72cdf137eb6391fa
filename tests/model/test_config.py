"""Tests for model configurations (Table 1 of the paper)."""

import pytest

from repro.model import (
    LLAMA2_13B,
    LLAMA2_70B,
    OPT_13B,
    OPT_66B,
    PAPER_MODELS,
    ModelConfig,
    tiny_llama_config,
    tiny_opt_config,
)


class TestTable1:
    """Hyper-parameters must match Table 1 exactly."""

    def test_opt_13b(self):
        assert OPT_13B.num_layers == 40
        assert OPT_13B.hidden_size == 5120
        assert OPT_13B.num_heads == 40
        assert OPT_13B.num_kv_heads == 40
        assert OPT_13B.head_dim == 128
        assert OPT_13B.num_gpus == 1

    def test_opt_66b(self):
        assert OPT_66B.num_layers == 64
        assert OPT_66B.hidden_size == 9216
        assert OPT_66B.num_heads == 72
        assert OPT_66B.num_kv_heads == 72
        assert OPT_66B.head_dim == 128
        assert OPT_66B.num_gpus == 4

    def test_llama2_13b_uses_paper_modified_gqa(self):
        assert LLAMA2_13B.num_layers == 40
        assert LLAMA2_13B.hidden_size == 5120
        assert LLAMA2_13B.num_heads == 40
        # The paper changes Llama 2-13B's KV heads from 40 to 10.
        assert LLAMA2_13B.num_kv_heads == 10
        assert LLAMA2_13B.gqa_group_size == 4
        assert LLAMA2_13B.num_gpus == 1

    def test_llama2_70b(self):
        assert LLAMA2_70B.num_layers == 80
        assert LLAMA2_70B.hidden_size == 8192
        assert LLAMA2_70B.num_heads == 64
        assert LLAMA2_70B.num_kv_heads == 8
        assert LLAMA2_70B.gqa_group_size == 8
        assert LLAMA2_70B.num_gpus == 4

    def test_registry_contains_all_four(self):
        assert set(PAPER_MODELS) == {
            "OPT-13B",
            "OPT-66B",
            "Llama 2-13B",
            "Llama 2-70B",
        }


class TestDerivedQuantities:
    def test_paper_kv_token_size_example(self):
        """§3.2: a 13B GPT-3 class model stores 0.78 MB per KV-token
        (2 * 40 layers * 5120 units * 2 bytes)."""
        assert OPT_13B.kv_bytes_per_token == 2 * 40 * 5120 * 2
        assert OPT_13B.kv_bytes_per_token / 2**20 == pytest.approx(0.78, abs=0.01)

    def test_gqa_shrinks_kv_tokens_4x(self):
        """§6.2: GQA group size 4 reduces KV memory 4x for Llama 2-13B."""
        mha_equivalent = 2 * 40 * 5120 * 2
        assert LLAMA2_13B.kv_bytes_per_token * 4 == mha_equivalent

    def test_opt66b_kv_growth_matches_paper(self):
        """§6.3: OPT-13B -> OPT-66B KV size grows by 2.88x
        (# layer x # hidden scaling)."""
        ratio = OPT_66B.kv_bytes_per_token / OPT_13B.kv_bytes_per_token
        assert ratio == pytest.approx(2.88, abs=0.01)

    def test_opt66b_compute_grows_faster_than_kv(self):
        """§6.3: computation grows >5x while KV grows 2.88x."""
        compute_ratio = (
            OPT_66B.linear_flops_per_token() / OPT_13B.linear_flops_per_token()
        )
        kv_ratio = OPT_66B.kv_bytes_per_token / OPT_13B.kv_bytes_per_token
        assert compute_ratio > 4.5
        assert compute_ratio > 1.5 * kv_ratio

    def test_param_counts_in_right_ballpark(self):
        assert OPT_13B.param_count == pytest.approx(13e9, rel=0.15)
        assert OPT_66B.param_count == pytest.approx(66e9, rel=0.15)
        assert LLAMA2_13B.param_count == pytest.approx(13e9, rel=0.15)
        assert LLAMA2_70B.param_count == pytest.approx(70e9, rel=0.15)

    def test_attention_flops_linear_in_context(self):
        f1 = OPT_13B.attention_flops_per_token(1000)
        f2 = OPT_13B.attention_flops_per_token(2000)
        assert f2 == pytest.approx(2 * f1)


class TestValidation:
    def test_rejects_unknown_arch(self):
        with pytest.raises(ValueError, match="arch"):
            ModelConfig(
                name="x", arch="gpt", num_layers=2, hidden_size=32,
                num_heads=4, num_kv_heads=4, head_dim=8, intermediate_size=64,
            )

    def test_rejects_bad_gqa_grouping(self):
        with pytest.raises(ValueError, match="multiple"):
            ModelConfig(
                name="x", arch="opt", num_layers=2, hidden_size=32,
                num_heads=4, num_kv_heads=3, head_dim=8, intermediate_size=64,
            )

    def test_rejects_head_dim_mismatch(self):
        with pytest.raises(ValueError, match="hidden_size"):
            ModelConfig(
                name="x", arch="opt", num_layers=2, hidden_size=32,
                num_heads=4, num_kv_heads=4, head_dim=16, intermediate_size=64,
            )


class TestTinyConfigs:
    def test_tiny_opt_valid(self):
        cfg = tiny_opt_config()
        assert cfg.arch == "opt"
        assert cfg.num_heads == cfg.num_kv_heads

    def test_tiny_llama_has_gqa(self):
        cfg = tiny_llama_config()
        assert cfg.arch == "llama"
        assert cfg.gqa_group_size == 2
