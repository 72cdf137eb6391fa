"""Exporter robustness: Chrome traces that always load, Prometheus text
that always parses, and the duck-typed ledger reader.

The Chrome trace guarantees under test (viewers reject violations of
any of them):

- the document is valid JSON even with spans still open at export time
  (closed on export, marked ``truncated``, tracer left unmutated);
- every ``ts`` is non-negative and the event array is strictly
  monotonic, whatever order (or sign) the source timestamps had;
- thread-name metadata precedes all real events.
"""

import json
import math
import os
import tempfile

import pytest

from repro.obs import (
    MetricsSampler,
    Tracer,
    ledger_counters,
    parse_prometheus,
    prometheus_snapshot,
    text_report,
    tier_attribution_table,
    to_chrome_trace,
)
from repro.obs.export import to_jsonl
from repro.obs.flight import SloConfig
from repro.obs.histogram import HistogramSet
from repro.serving.metrics import MetricsCollector


def _chrome(tracer):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.chrome.json")
        document = to_chrome_trace(tracer, path)
        # The written file and the returned document agree.
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == json.loads(json.dumps(document))
    return document


class TestChromeTraceRobustness:
    def test_open_spans_closed_on_export_only(self):
        tracer = Tracer()
        done = tracer.begin("prefill", t=0.0)
        tracer.end(done, t=1.0)
        tracer.begin("request", t=0.5, conv_id=3)  # never ended
        tracer.instant("evict", t=2.0)
        document = _chrome(tracer)
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        truncated = [e for e in spans if e["args"].get("truncated")]
        assert len(truncated) == 1
        assert truncated[0]["name"] == "request"
        # Closed at the trace horizon (t=2.0 instant), not at zero.
        assert truncated[0]["dur"] == pytest.approx((2.0 - 0.5) * 1e6)
        # The tracer itself was not mutated by exporting.
        assert tracer.spans_named("request")[0].t1 is None

    def test_ts_strictly_monotonic_and_non_negative(self):
        tracer = Tracer()
        # Deliberately hostile: negative, duplicate, and reverse-ordered
        # timestamps across event kinds.
        tracer.complete("a", -1.0, -0.5)
        tracer.complete("b", 3.0, 4.0)
        tracer.complete("c", 3.0, 3.5)
        tracer.instant("tie", t=3.0)
        tracer.instant("tie", t=3.0)
        tracer.gauge("queue", 5.0, t=0.0)
        tracer.gauge("queue", 6.0, t=0.0)
        document = _chrome(tracer)
        stamps = [e["ts"] for e in document["traceEvents"]]
        assert all(ts >= 0.0 for ts in stamps)
        assert all(b > a for a, b in zip(stamps, stamps[1:]))
        durations = [e["dur"] for e in document["traceEvents"] if e["ph"] == "X"]
        assert all(d >= 0.0 for d in durations)

    def test_meta_events_lead_the_array(self):
        tracer = Tracer()
        tracer.complete("step", 0.0, 1.0, track="engine")
        tracer.complete("copy", 0.2, 0.8, track="cache")
        events = _chrome(tracer)["traceEvents"]
        kinds = [e["ph"] for e in events]
        first_real = kinds.index("X")
        assert set(kinds[:first_real]) == {"M"}
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {"engine", "cache"}

    def test_empty_tracer_still_valid(self):
        document = _chrome(Tracer())
        assert document["traceEvents"] == []
        assert document["otherData"]["format"] == "repro-trace-chrome"

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        span = tracer.begin("request", t=0.0, conv_id=1)
        tracer.end(span, t=2.0)
        tracer.count("pcie.h2d_bytes", 4096)
        path = tmp_path / "t.jsonl"
        assert to_jsonl(tracer, path) == 3  # meta + span + counter
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["format"] == "repro-trace-jsonl"
        by_type = {r["type"] for r in records}
        assert by_type == {"meta", "span", "counter"}
        counter = next(r for r in records if r["type"] == "counter")
        assert counter == {"type": "counter", "name": "pcie.h2d_bytes",
                           "total": 4096}


class TestSpanSummary:
    """The text report is the one span rollup."""

    def test_empty_tracer(self):
        text = text_report(Tracer())
        assert text.startswith("== trace report ==")
        assert "-- stages --" not in text and "slowest spans" not in text

    def test_aggregates_and_slowest(self):
        tracer = Tracer()
        tracer.complete("decode", 0.0, 0.1)
        tracer.complete("decode", 0.1, 0.3)
        tracer.complete("prefill", 0.0, 1.5, request_id=7, tokens=128)
        for i in range(12):
            tracer.complete("step", 2.0, 2.0 + 0.01 * i, track="engine")
        text = text_report(tracer)
        lines = text.splitlines()
        decode = next(l for l in lines if l.startswith("decode "))
        count, total, mean, peak = decode.split()[1:5]
        assert (count, total, mean, peak) == ("2", "0.300000", "0.150000", "0.200000")
        assert "-- 10 slowest spans --" in text
        slowest = lines[lines.index("-- 10 slowest spans --") + 2:][:10]
        assert slowest[0].startswith("prefill")
        assert slowest[0].endswith("request_id=7, tokens=128")
        assert slowest[1].startswith("decode")
        assert not any("track=" in line for line in slowest)


class TestPrometheusRoundTrip:
    def test_histogram_exposition_round_trips(self):
        hists = HistogramSet()
        for value in (0.01, 0.05, 0.2):
            hists.hist("ttft_seconds").record(value)
        hists.hist("swap_in_seconds", tier="cpu").record(0.003)
        text = prometheus_snapshot(hists=hists)
        parsed = parse_prometheus(text)
        assert parsed["repro_ttft_seconds_count"][()] == 3
        assert parsed["repro_ttft_seconds_sum"][()] == pytest.approx(0.26)
        cpu = (("tier", "cpu"),)
        assert parsed["repro_swap_in_seconds_count"][cpu] == 1
        inf_rows = [
            v
            for labels, v in parsed["repro_ttft_seconds_bucket"].items()
            if dict(labels)["le"] == "+Inf"
        ]
        assert inf_rows == [3]

    def test_counters_and_gauges_without_collector(self):
        parsed = parse_prometheus(
            prometheus_snapshot(counters={"ledger.pcie.h2d_transfers": 7})
        )
        assert parsed == {"repro_ledger_pcie_h2d_transfers_total": {(): 7.0}}
        # Gauges come from a collector's objectives.
        collector = MetricsCollector().enable_slo(slo=SloConfig(ttft=0.5))
        parsed = parse_prometheus(prometheus_snapshot(collector=collector))
        assert parsed["repro_slo_ttft_seconds"][()] == 0.5

    def test_non_finite_values_round_trip(self):
        """``--slo-ttft inf`` is a legal objective; its gauge (and any
        non-finite counter) is written in the exposition's own spelling
        instead of crashing the snapshot after the run."""
        collector = MetricsCollector().enable_slo(slo=SloConfig(ttft=float("inf")))
        text = prometheus_snapshot(
            collector=collector, counters={"down": float("-inf"), "odd": float("nan")}
        )
        assert "repro_slo_ttft_seconds +Inf" in text
        parsed = parse_prometheus(text)
        assert parsed["repro_slo_ttft_seconds"][()] == float("inf")
        assert parsed["repro_down_total"][()] == float("-inf")
        assert math.isnan(parsed["repro_odd_total"][()])

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError):
            parse_prometheus("repro_ok 1\nthis is { not a metric\n")
        # Comments and blanks are fine.
        assert parse_prometheus("# HELP x y\n\nrepro_ok 1\n") == {
            "repro_ok": {(): 1.0}
        }

    def test_null_hists_contribute_nothing(self):
        assert "bucket" not in prometheus_snapshot(hists=None)
        assert "bucket" not in prometheus_snapshot(MetricsCollector())


class TestTierAttributionTable:
    def test_empty_inputs_render_empty_string(self):
        assert tier_attribution_table(None) == ""
        assert tier_attribution_table(HistogramSet()) == ""
        empty_recorded = HistogramSet()
        empty_recorded.hist("ttft_seconds")  # created but never recorded
        assert tier_attribution_table(empty_recorded) == ""

    def test_rows_per_label_variant(self):
        hists = HistogramSet()
        hists.hist("swap_in_seconds", tier="cpu").record(0.01)
        hists.hist("swap_in_seconds", tier="disk").record(0.04)
        text = tier_attribution_table(hists, title="-- attribution --")
        assert text.startswith("-- attribution --")
        assert "swap_in_seconds{tier=cpu}" in text
        assert "swap_in_seconds{tier=disk}" in text
        assert "p99" in text


class TestLedgerCounters:
    def test_bare_object_yields_nothing(self):
        assert ledger_counters(object()) == {}

    def test_duck_typed_ledgers(self):
        class _Dir:
            def __init__(self, value):
                self.value = value

        H2D, D2H = _Dir("h2d"), _Dir("d2h")

        class _Record:
            def __init__(self, direction):
                self.direction = direction

        class _Pcie:
            history = [_Record(H2D), _Record(H2D), _Record(D2H)]
            bytes_moved = {H2D: 4096, D2H: 1024}

        class _Engine:
            pcie = _Pcie()

        counters = ledger_counters(_Engine())
        assert counters["ledger.pcie.h2d_transfers"] == 2
        assert counters["ledger.pcie.d2h_transfers"] == 1
        assert counters["ledger.pcie.h2d_bytes"] == 4096
        assert len(counters) == 4  # two directions, transfers and bytes


class TestMetricsSampler:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            MetricsSampler(interval=0.0)

    def test_write_jsonl_meta_line(self, tmp_path):
        sampler = MetricsSampler(interval=0.5, horizon=10.0)
        sampler.rows.append({"type": "sample", "t": 0.0, "finished": 0})
        path = tmp_path / "m.jsonl"
        assert sampler.write_jsonl(path) == 2
        meta, row = [json.loads(l) for l in path.read_text().splitlines()]
        assert meta["format"] == "repro-metrics-jsonl"
        assert meta["interval"] == 0.5 and meta["horizon"] == 10.0
        assert row["finished"] == 0
