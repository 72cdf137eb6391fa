"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.obs import parse_prometheus


@pytest.fixture(scope="module")
def traced_simulate(tmp_path_factory):
    """One ``simulate --trace-out`` run shared by the trace tests."""
    out_dir = tmp_path_factory.mktemp("traced") / "t"
    rc = main(
        [
            "simulate", "--system", "pensieve", "--model", "opt-13b",
            "--rate", "2", "--duration", "30", "--seed", "3",
            "--trace-out", str(out_dir),
        ]
    )
    assert rc == 0
    return out_dir


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

    @pytest.mark.parametrize("command", [
        ["simulate", "--rate", "nan", "--duration", "30"],
        ["simulate", "--think-time", "nan"],
        ["simulate", "--duration", "nan"],
        ["sweep", "--rates", "nan"],
    ], ids=["simulate-rate", "simulate-think", "simulate-duration", "sweep-rates"])
    def test_nan_workload_input_exits_with_the_message(self, command):
        """Not a one-conversation run (NaN rate) or a traceback from the
        event loop (NaN think time): the generator's message."""
        with pytest.raises(SystemExit, match=r"^repro \w+: .*finite, got nan"):
            main(command + ["--model", "opt-13b"])

    def test_sweep_refuses_a_bad_rate_before_any_run(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the bad rate was refused")

        monkeypatch.setattr("repro.experiments.common.run_serving_once", no_run)
        with pytest.raises(SystemExit, match="got nan"):
            main(["sweep", "--rates", "2", "nan", "--model", "opt-13b"])

    @pytest.mark.parametrize("command", [
        ["simulate", "--duration", "inf"],
        ["sweep", "--rates", "2", "--duration", "inf"],
    ], ids=["simulate", "sweep"])
    def test_infinite_duration_exits_with_the_message(self, command):
        with pytest.raises(SystemExit, match=r"^repro \w+: duration .*got inf"):
            main(command + ["--model", "opt-13b"])

    def test_model_name_normalisation(self, capsys):
        rc = main(
            [
                "simulate", "--system", "pensieve", "--model", "LLAMA2-13B",
                "--rate", "2", "--duration", "30",
            ]
        )
        assert rc == 0
        assert "Llama 2-13B" in capsys.readouterr().out


class TestChat:
    @pytest.mark.parametrize("max_tokens", ["0", "-3"])
    def test_max_tokens_below_one_exits_before_the_server(self, max_tokens, monkeypatch):
        """Refused before the server is built, not by ``chat_batch`` at
        the first turn of a REPL that already started."""

        def no_server(*args, **kwargs):
            raise AssertionError("the server was built before the flag was refused")

        monkeypatch.setattr("repro.core.server.StatefulChatServer", no_server)
        monkeypatch.setattr("sys.stdin", io.StringIO("hi\n"))
        with pytest.raises(
            SystemExit, match=r"^repro chat: --max-tokens must be at least 1"
        ):
            main(["chat", "--max-tokens", max_tokens])


class TestSloFlags:
    @pytest.mark.parametrize("command", [
        ["simulate", "--rate", "2", "--duration", "40", "--slo-ttft", "-1"],
        ["simulate", "--rate", "2", "--duration", "40", "--slo-tbt", "0"],
        ["simulate", "--rate", "2", "--duration", "40", "--slo-tbt", "nan"],
        ["sweep", "--rates", "2", "--duration", "40", "--slo-ttft", "-1"],
        ["chat", "--slo-ttft", "-1"],
    ], ids=["simulate-ttft", "simulate-tbt", "simulate-nan", "sweep-ttft", "chat-ttft"])
    def test_non_positive_objective_exits_with_the_message(self, command, monkeypatch):
        """``SloConfig``'s message, as ``--rate 0`` gives the generator's,
        and before any run starts."""

        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the objective was refused")

        monkeypatch.setattr("repro.experiments.common.run_serving_once", no_run)
        monkeypatch.setattr("sys.stdin", io.StringIO("hi\n"))
        with pytest.raises(SystemExit, match=r"^repro \w+: slo (ttft|tbt) must be positive"):
            main(command + ([] if command[0] == "chat" else ["--model", "opt-13b"]))


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
        """The one traced-simulate command prints its run summary and
        writes the Chrome trace, the JSONL events and the text report."""
        out_dir = tmp_path / "traces"
        rc = main(
            [
                "simulate", "--rate", "2", "--duration", "40",
                "--seed", "3", "--trace-out", str(out_dir),
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

    def test_simulate_trace_out_flag(self, traced_simulate):
        for suffix in ("chrome.json", "jsonl", "txt"):
            assert (traced_simulate / f"trace_simulate.{suffix}").exists()


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
        """One traced-simulate command and one rollup: ``trace simulate``
        and the summary flags are gone; the text report holds the rollup."""
        parser = build_parser()
        for argv in (
            ["trace", "simulate"],
            ["trace", "fig13", "--summary"],
            ["trace", "fig13", "--top", "3"],
            ["trace", "fig13", "--system", "vllm"],
            ["trace", "fig13", "--dataset", "ultrachat"],
            ["trace", "fig13", "--think-time", "60"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
        assert parser.parse_args(["trace", "fig13"]).experiment == "fig13"

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
        prom_text = (out_dir / "metrics.prom").read_text()
        parsed = parse_prometheus(prom_text)  # must not raise
        assert "repro_requests_completed_total" in parsed
        assert any(name.startswith("repro_ledger_") for name in parsed)
        jsonl = (out_dir / "metrics.jsonl").read_text().splitlines()
        assert json.loads(jsonl[0])["format"] == "repro-metrics-jsonl"
        assert (out_dir / "metrics_captures.jsonl").exists()

    def test_trace_summary_prints_aggregate(self, traced_simulate):
        report = (traced_simulate / "trace_simulate.txt").read_text()
        header = next(l for l in report.splitlines() if l.startswith("stage "))
        assert header.split() == [
            "stage", "count", "total_t", "mean_t", "max_t", "wall_s"
        ]
        lines = report.splitlines()
        start = lines.index("-- 10 slowest spans --")
        slowest = lines[start + 2:start + 12]
        assert len(slowest) == 10 and all(slowest)
        assert "request_id=" in "\n".join(slowest)

    def test_sweep_slo_metrics_keep_every_violation(self, capsys, tmp_path):
        """An unmeetable TTFT objective: every completion of the sweep
        violates it, and the snapshot and the captures say so."""
        out_dir = tmp_path / "m"
        rc = main(
            [
                "sweep", "--system", "pensieve", "--rates", "2",
                "--duration", "30", "--seed", "3", "--slo-ttft", "0.001",
                "--metrics-out", str(out_dir),
            ]
        )
        assert rc == 0
        assert "slo violations: {'ttft': " in capsys.readouterr().out
        parsed = parse_prometheus((out_dir / "sweep_metrics.prom").read_text())
        completed = parsed["repro_requests_completed_total"][()]
        assert completed > 0
        assert parsed["repro_slo_violations_ttft_total"][()] == completed
        captures = (out_dir / "sweep_metrics_captures.jsonl").read_text()
        assert len(captures.splitlines()) == completed
