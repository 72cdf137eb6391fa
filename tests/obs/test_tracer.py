"""Unit tests for the tracer core and the exporters."""

import io
import json

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    read_jsonl,
    text_report,
    to_chrome_trace,
    to_jsonl,
    write_trace_artifacts,
)


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------


class TestSpans:
    def test_begin_end_records_interval(self):
        tracer = Tracer()
        sid = tracer.begin("work", t=1.0, kind="demo")
        tracer.end(sid, t=3.5, outcome="ok")
        (span,) = tracer.spans
        assert span.name == "work"
        assert span.t0 == 1.0 and span.t1 == 3.5
        assert span.duration == 2.5
        assert span.attrs == {"kind": "demo", "outcome": "ok"}
        assert span.wall_duration >= 0.0

    def test_ids_are_sequential_in_creation_order(self):
        tracer = Tracer()
        ids = [tracer.begin(f"s{i}", t=float(i)) for i in range(5)]
        assert ids == [1, 2, 3, 4, 5]
        assert [s.id for s in tracer.spans] == ids

    def test_explicit_parent(self):
        tracer = Tracer()
        root = tracer.begin("request", t=0.0)
        child = tracer.begin("prefill", t=0.0, parent=root)
        tracer.end(child, t=1.0)
        tracer.end(root, t=2.0)
        spans = {s.name: s for s in tracer.spans}
        assert spans["prefill"].parent == root
        assert spans["request"].parent is None

    def test_end_tolerates_unknown_and_double_close(self):
        tracer = Tracer()
        sid = tracer.begin("once", t=0.0)
        tracer.end(sid, t=1.0)
        tracer.end(sid, t=9.0)  # double close: ignored
        tracer.end(0, t=9.0)  # null handle: ignored
        tracer.end(12345, t=9.0)  # never opened: ignored
        (span,) = tracer.spans
        assert span.t1 == 1.0

    def test_complete_is_one_shot(self):
        tracer = Tracer()
        tracer.complete("iteration", 2.0, 2.25, batch_size=4)
        (span,) = tracer.spans
        assert span.t0 == 2.0 and span.t1 == 2.25
        assert span.attrs["batch_size"] == 4

    def test_context_manager_nests_via_stack(self):
        tracer = Tracer()
        with tracer.span("outer", t=0.0):
            with tracer.span("inner", t=0.5):
                pass
        spans = {s.name: s for s in tracer.spans}
        assert spans["inner"].parent == spans["outer"].id
        assert spans["outer"].parent is None
        assert spans["outer"].t1 is not None and spans["inner"].t1 is not None

    def test_close_open_marks_truncated(self):
        tracer = Tracer()
        sid = tracer.begin("in_flight", t=1.0)
        tracer.close_open(t=7.0)
        (span,) = tracer.spans
        assert span.t1 == 7.0
        assert span.attrs["truncated"] is True
        # idempotent
        tracer.close_open(t=9.0)
        assert tracer.spans[0].t1 == 7.0
        assert sid == span.id


class TestCountersAndGauges:
    def test_count_accumulates(self):
        tracer = Tracer()
        tracer.count("bytes", 10)
        tracer.count("bytes", 5)
        tracer.count("events")
        assert tracer.counter("bytes") == 15
        assert tracer.counter("events") == 1
        assert tracer.counter("missing") == 0.0

    def test_gauge_samples_in_order(self):
        tracer = Tracer()
        tracer.gauge("depth", 3, t=1.0)
        tracer.gauge("depth", 5, t=2.0)
        names_values = [(g[0], g[3]) for g in tracer.gauge_samples]
        assert names_values == [("depth", 3.0), ("depth", 5.0)]

    def test_instants_capture_attrs(self):
        tracer = Tracer()
        tracer.instant("evict", t=4.0, conv_id=7, tokens=32)
        ((name, t, _wall, _parent, attrs),) = tracer.instants
        assert name == "evict" and t == 4.0
        assert attrs == {"conv_id": 7, "tokens": 32}


class TestNullTracer:
    def test_disabled_and_noop(self):
        null = NullTracer()
        assert not null.enabled
        assert null.begin("x", t=1.0) == 0
        assert null.complete("x", 0.0, 1.0) == 0
        null.end(0, t=1.0)
        null.instant("x")
        null.count("x", 5)
        null.gauge("x", 1.0)
        null.close_open()
        with null.span("x"):
            pass

    def test_shared_singleton_is_null(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled
        assert not isinstance(NULL_TRACER, Tracer)

    def test_span_context_is_shared_instance(self):
        null = NullTracer()
        assert null.span("a") is null.span("b")


class TestDeterminism:
    @staticmethod
    def _record(tracer):
        root = tracer.begin("request", t=0.0, conv_id=1)
        for i in range(3):
            tracer.complete("iteration", float(i), float(i) + 0.5, parent=root)
            tracer.count("iterations")
            tracer.gauge("depth", i, t=float(i))
            tracer.instant("tick", t=float(i), i=i)
        tracer.end(root, t=3.0)

    def test_identical_runs_produce_identical_primary_records(self):
        a, b = Tracer(), Tracer()
        self._record(a)
        self._record(b)
        key = lambda t: (
            [(s.id, s.name, s.parent, s.t0, s.t1, s.attrs) for s in t.spans],
            [(n, tt, p, at) for n, tt, _w, p, at in t.instants],
            t.counters,
            [(n, tt, v) for n, tt, _w, v in t.gauge_samples],
        )
        assert key(a) == key(b)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    root = tracer.begin("request", t=0.0, track="requests", conv_id=3)
    tracer.complete("prefill", 0.0, 0.4, parent=root, track="engine", tokens=16)
    tracer.complete("decode", 0.4, 1.2, parent=root, track="engine", tokens=8)
    tracer.instant("evict", t=0.9, track="cache", conv_id=3, tokens=32)
    tracer.count("pcie.h2d_bytes", 4096)
    tracer.gauge("kv.gpu_free_tokens", 128, t=0.5)
    tracer.end(root, t=1.2, outcome="finished")
    return tracer


class TestJsonl:
    def test_round_trip(self):
        tracer = _sample_tracer()
        buf = io.StringIO()
        count = to_jsonl(tracer, buf)
        buf.seek(0)
        records = read_jsonl(buf)
        assert len(records) == count
        assert records[0]["type"] == "meta"
        by_type = {}
        for r in records:
            by_type.setdefault(r["type"], []).append(r)
        assert len(by_type["span"]) == 3
        assert len(by_type["event"]) == 1
        assert len(by_type["gauge"]) == 1
        (counter,) = by_type["counter"]
        assert counter["name"] == "pcie.h2d_bytes"
        assert counter["total"] == 4096
        request = next(r for r in by_type["span"] if r["name"] == "request")
        assert request["attrs"]["outcome"] == "finished"
        assert request["t1"] == 1.2

    def test_every_line_is_valid_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        to_jsonl(_sample_tracer(), str(path))
        for line in path.read_text().splitlines():
            json.loads(line)  # raises on malformed output


class TestChromeTrace:
    def test_schema(self, tmp_path):
        path = tmp_path / "t.chrome.json"
        to_chrome_trace(_sample_tracer(), str(path))
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert events, "chrome trace must not be empty"
        for event in events:
            assert event["ph"] in ("X", "i", "C", "M")
            assert "ts" in event and "pid" in event and "tid" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            if event["ph"] == "i":
                assert event["s"] == "t"
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"request", "prefill", "decode"}
        prefill = next(e for e in spans if e["name"] == "prefill")
        # ts may carry a sub-microsecond strict-monotonicity nudge.
        assert 0.0 <= prefill["ts"] < 0.01
        assert prefill["dur"] == pytest.approx(0.4e6)
        # track metadata names each tid
        meta = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert {"requests", "engine", "cache"} <= meta
        assert document["otherData"]["counters"]["pcie.h2d_bytes"] == 4096

    def test_wall_axis_and_bad_axis(self, tmp_path):
        tracer = _sample_tracer()
        to_chrome_trace(tracer, str(tmp_path / "w.json"), time_axis="wall")
        with pytest.raises(ValueError):
            to_chrome_trace(tracer, str(tmp_path / "x.json"), time_axis="cpu")

    def test_open_spans_export_with_zero_duration(self, tmp_path):
        tracer = Tracer()
        tracer.begin("open", t=1.0, track="engine")
        path = tmp_path / "open.json"
        to_chrome_trace(tracer, str(path))
        (event,) = [
            e for e in json.loads(path.read_text())["traceEvents"]
            if e["ph"] == "X"
        ]
        assert event["dur"] == 0.0


class TestTextReport:
    def test_contains_rollups(self):
        report = text_report(_sample_tracer())
        assert "-- stages --" in report
        assert "request" in report and "prefill" in report
        assert "-- conversations (request spans) --" in report
        assert "-- counters --" in report and "pcie.h2d_bytes" in report
        assert "-- gauges --" in report and "kv.gpu_free_tokens" in report


class TestArtifacts:
    def test_write_all_three(self, tmp_path):
        tracer = _sample_tracer()
        tracer.begin("in_flight", t=1.0)
        paths = write_trace_artifacts(tracer, str(tmp_path), close_at=2.0)
        assert set(paths) == {"jsonl", "chrome", "report"}
        for path in paths.values():
            assert (tmp_path / path.split("/")[-1]).exists()
        # close_at sealed the open span before export
        records = read_jsonl(paths["jsonl"])
        in_flight = next(
            r for r in records if r["type"] == "span" and r["name"] == "in_flight"
        )
        assert in_flight["t1"] == 2.0
        assert in_flight["attrs"]["truncated"] is True
