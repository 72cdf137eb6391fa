"""Structure tests for the serving-figure experiment modules.

These run at miniature scale (tens of simulated seconds) purely to pin
the modules' interfaces — curve keys, row schemas, ratio helpers.  The
paper-shape assertions run at full scale in ``benchmarks/``.
"""

import pytest

from repro.experiments import fig10, fig11, fig13, fig14, fig15
from repro.experiments.common import RatePoint
from repro.model import LLAMA2_13B, OPT_13B, OPT_66B
from repro.workload import SHAREGPT

TINY_KW = dict(rates=(1.0, 2.0), duration=40.0, seed=3)


def check_curves(curves, expected_systems):
    assert set(curves) == set(expected_systems)
    for points in curves.values():
        assert [p.request_rate for p in points] == [1.0, 2.0]
        for point in points:
            assert isinstance(point, RatePoint)
            assert point.throughput_rps >= 0
            assert point.mean_norm_latency > 0


class TestFig10Module:
    def test_all_four_systems(self):
        curves = fig10.run_fig10(OPT_13B, SHAREGPT, **TINY_KW)
        check_curves(
            curves,
            {"vLLM", "TensorRT-LLM", "Pensieve", "Pensieve (GPU cache)"},
        )

    def test_system_subset(self):
        curves = fig10.run_fig10(
            OPT_13B, SHAREGPT, systems=("vLLM", "Pensieve"), **TINY_KW
        )
        check_curves(curves, {"vLLM", "Pensieve"})

    def test_headline_ratios_structure(self):
        curves = fig10.run_fig10(
            OPT_13B, SHAREGPT, systems=("vLLM", "Pensieve"), **TINY_KW
        )
        ratios = fig10.headline_ratios(curves, 0.5)
        assert set(ratios) == {"vLLM"}
        assert ratios["vLLM"] > 0

    def test_format_includes_paper_reference(self):
        curves = fig10.run_fig10(
            OPT_13B, SHAREGPT, systems=("vLLM", "Pensieve"), **TINY_KW
        )
        text = fig10.format_fig10(curves, OPT_13B, SHAREGPT)
        assert "Figure 10" in text and "OPT-13B" in text

    def test_paper_tables_complete(self):
        """Every Figure 10 panel has a latency target and paper ratios."""
        for key in fig10.PAPER_LATENCY_TARGETS:
            assert key in fig10.PAPER_RATIOS
            assert set(fig10.PAPER_RATIOS[key]) == {"vLLM", "TensorRT-LLM"}


class TestFig11Module:
    def test_rejects_single_gpu_model(self):
        with pytest.raises(ValueError):
            fig11.run_fig11(OPT_13B, **TINY_KW)

    def test_runs_multi_gpu(self):
        curves = fig11.run_fig11(
            OPT_66B, systems=("vLLM", "Pensieve"), **TINY_KW
        )
        check_curves(curves, {"vLLM", "Pensieve"})

    def test_format_renames_figure(self):
        curves = fig11.run_fig11(
            OPT_66B, systems=("vLLM", "Pensieve"), **TINY_KW
        )
        text = fig11.format_fig11(curves, OPT_66B)
        assert "Figure 11" in text and "4 GPUs" in text


class TestFig13Module:
    def test_two_variants(self):
        curves = fig13.run_fig13(config=LLAMA2_13B, **TINY_KW)
        check_curves(curves, {"unified", "separate"})
        assert "Figure 13" in fig13.format_fig13(curves)


class TestFig14Module:
    def test_two_policies_with_cache_extras(self):
        curves = fig14.run_fig14(cpu_cache_tokens=5000, **TINY_KW)
        check_curves(curves, {"retention-value", "lru"})
        for points in curves.values():
            for point in points:
                assert "hit_rate" in point.extras
                assert "recomputed_tokens" in point.extras
        assert "Figure 14" in fig14.format_fig14(curves)


class TestFig15Module:
    def test_think_time_curves(self):
        curves = fig15.run_fig15(
            think_times=(5.0, 20.0), cpu_cache_tokens=5000, **TINY_KW
        )
        assert set(curves) == {
            "Pensieve think=5s",
            "Pensieve think=20s",
            "vLLM think=5s",
            "vLLM think=20s",
        }
        assert "Figure 15" in fig15.format_fig15(curves)
