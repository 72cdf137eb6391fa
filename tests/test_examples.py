"""Smoke tests: every example script must run end-to-end.

The examples are part of the public deliverable; these tests execute their
``main()`` functions in-process (with stdout captured) so a refactor can
never silently break them.  The heavyweight serving examples are exercised
at reduced scale via their module-level knobs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestQuickstart:
    def test_runs(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "Cached context per conversation" in out
        assert "Cache-manager statistics" in out


class TestCachePressureTour:
    def test_runs_and_outputs_identical(self, capsys):
        load_example("cache_pressure_tour").main()
        out = capsys.readouterr().out
        assert "Every output identical" in out
        assert "recomputed" in out


class TestKernelMicrobenchmark:
    def test_runs(self, capsys):
        module = load_example("kernel_microbenchmark")
        module.main()
        out = capsys.readouterr().out
        assert "Figure 12" in out
        assert "multiround / ideal" in out


class TestServingComparison:
    def test_runs_at_reduced_scale(self, capsys, monkeypatch):
        module = load_example("serving_comparison")
        monkeypatch.setattr(sys, "argv", ["serving_comparison.py", "2.0"])
        module.main()
        out = capsys.readouterr().out
        assert "Pensieve" in out and "vLLM" in out
        assert "prefilled tokens" in out


@pytest.mark.slow
class TestTraceAnalysis:
    def test_runs(self, capsys):
        load_example("trace_analysis").main()
        out = capsys.readouterr().out
        assert "Cache behaviour" in out
        assert "Per-turn latency" in out


class TestSystemPromptSharing:
    def test_runs_and_saves_memory(self, capsys):
        load_example("system_prompt_sharing").main()
        out = capsys.readouterr().out
        assert "Outputs identical to per-conversation prepending: True" in out
        assert "Saved" in out
