"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("chat", "simulate", "sweep", "figures", "report"):
            args = parser.parse_args(
                [command] if command != "report" else [command, "--output", "x.md"]
            )
            assert args.command == command

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--model", "gpt-5", "--duration", "5"])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--system", "orca", "--duration", "5"])


class TestSimulate:
    def test_simulate_pensieve(self, capsys):
        rc = main(
            [
                "simulate", "--system", "pensieve", "--model", "opt-13b",
                "--rate", "2", "--duration", "40", "--seed", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pensieve" in out
        assert "throughput_rps" in out
        assert "cache" in out

    def test_simulate_vllm_has_no_cache_line(self, capsys):
        rc = main(
            [
                "simulate", "--system", "vllm", "--model", "opt-13b",
                "--rate", "2", "--duration", "40",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "vLLM" in out
        assert "cache         :" not in out

    def test_fault_seed_arms_injection(self, capsys):
        rc = main(
            [
                "simulate", "--system", "pensieve", "--model", "opt-13b",
                "--rate", "2", "--duration", "40", "--seed", "3",
                "--fault-seed", "11", "--fault-rate", "0.05",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults        :" in out
        assert "retries" in out
        assert "degraded      :" in out

    def test_no_fault_seed_no_fault_lines(self, capsys):
        rc = main(
            [
                "simulate", "--system", "pensieve", "--model", "opt-13b",
                "--rate", "2", "--duration", "40", "--seed", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults        :" not in out

    def test_fault_seed_rejected_for_stateless_systems(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate", "--system", "vllm", "--model", "opt-13b",
                    "--rate", "2", "--duration", "20", "--fault-seed", "1",
                ]
            )

    def test_model_name_normalisation(self, capsys):
        rc = main(
            [
                "simulate", "--system", "pensieve", "--model", "LLAMA2-13B",
                "--rate", "2", "--duration", "30",
            ]
        )
        assert rc == 0
        assert "Llama 2-13B" in capsys.readouterr().out


class TestSweep:
    def test_sweep_prints_curve(self, capsys):
        rc = main(
            [
                "sweep", "--system", "tensorrt-llm", "--model", "opt-13b",
                "--rates", "1", "2", "--duration", "40",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tensorrt-llm / OPT-13B" in out
        assert "thr(req/s)" in out


class TestFigures:
    def test_figures_prints_all(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for label in ("Figure 3", "Figure 4", "Figure 12", "Table 2"):
            assert label in out


class TestTrace:
    def test_trace_simulate_writes_artifacts(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "traces"
        rc = main(
            [
                "trace", "simulate", "--rate", "2", "--duration", "40",
                "--seed", "3", "--out", str(out_dir),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput_rps" in out
        chrome = json.loads((out_dir / "trace_simulate.chrome.json").read_text())
        events = chrome["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "request" for e in events)
        for event in events:
            assert "ph" in event and "ts" in event and "pid" in event
        jsonl = (out_dir / "trace_simulate.jsonl").read_text().splitlines()
        assert all(json.loads(line) for line in jsonl)
        assert (out_dir / "trace_simulate.txt").read_text().startswith(
            "== trace report =="
        )

    def test_simulate_trace_out_flag(self, capsys, tmp_path):
        out_dir = tmp_path / "t"
        rc = main(
            [
                "simulate", "--system", "pensieve", "--model", "opt-13b",
                "--rate", "2", "--duration", "30", "--seed", "3",
                "--trace-out", str(out_dir),
            ]
        )
        assert rc == 0
        assert (out_dir / "trace_simulate.chrome.json").exists()
        assert (out_dir / "trace_simulate.jsonl").exists()


class TestObservabilityCli:
    def test_slo_flags_on_serving_commands(self):
        parser = build_parser()
        for command in ("chat", "simulate", "sweep"):
            args = parser.parse_args([command])
            assert args.slo_ttft is None
            assert args.slo_tbt is None
            assert args.metrics_out is None
            args = parser.parse_args(
                [command, "--slo-ttft", "0.5", "--slo-tbt", "0.1",
                 "--metrics-out", "m"]
            )
            assert args.slo_ttft == 0.5
            assert args.slo_tbt == 0.1
            assert args.metrics_out == "m"

    def test_trace_summary_flags(self):
        args = build_parser().parse_args(["trace", "simulate"])
        assert args.summary is False and args.top == 10
        args = build_parser().parse_args(
            ["trace", "simulate", "--summary", "--top", "3"]
        )
        assert args.summary is True and args.top == 3

    def test_simulate_with_slo_writes_metrics_artifacts(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "m"
        rc = main(
            [
                "simulate", "--system", "pensieve", "--model", "opt-13b",
                "--rate", "2", "--duration", "40", "--seed", "3",
                "--slo-ttft", "0.5", "--slo-tbt", "0.2",
                "--metrics-out", str(out_dir),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "slo violations" in out or "flight capture" in out
        from repro.obs import parse_prometheus

        prom_text = (out_dir / "metrics.prom").read_text()
        parsed = parse_prometheus(prom_text)  # must not raise
        assert "repro_requests_completed_total" in parsed
        assert any(name.startswith("repro_ledger_") for name in parsed)
        jsonl = (out_dir / "metrics.jsonl").read_text().splitlines()
        assert json.loads(jsonl[0])["format"] == "repro-metrics-jsonl"
        assert (out_dir / "metrics_captures.jsonl").exists()

    def test_trace_summary_prints_aggregate(self, capsys, tmp_path):
        rc = main(
            [
                "trace", "simulate", "--rate", "2", "--duration", "30",
                "--seed", "3", "--summary", "--top", "3",
                "--out", str(tmp_path / "t"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "== span summary ==" in out
        assert "per-span-name aggregate" in out
