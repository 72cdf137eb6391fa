"""Unit tests for the per-request flight recorder and SLO config.

Two properties carry the reconciliation guarantees: the per-request rings
are *bounded* (old events roll off), while the ``event_counts`` ledger is
*exact* and monotonic — it must agree with the engine-side counters no
matter how many ring events were evicted.
"""

import io
import json

import pytest

from repro.core.engine import PensieveEngine
from repro.experiments.common import run_rate_sweep
from repro.gpu.device import A100_80GB
from repro.model.config import OPT_13B
from repro.obs.flight import (
    MAX_CAPTURES,
    RING_CAPACITY,
    FlightEvent,
    FlightRecorder,
    NULL_FLIGHT,
    NullFlightRecorder,
    SloConfig,
)
from repro.obs.histogram import HistogramSet
from repro.workload.dataset import SHAREGPT


class TestSloConfig:
    def test_defaults_unarmed(self):
        slo = SloConfig()
        assert slo.ttft is None and slo.tbt is None
        assert not slo.armed
        assert slo.violations(100.0, 100.0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            SloConfig(ttft=0.0)
        with pytest.raises(ValueError):
            SloConfig(ttft=-1.0)
        with pytest.raises(ValueError):
            SloConfig(tbt=0.0)

    @pytest.mark.parametrize("field", ["ttft", "tbt"])
    def test_nan_objective_rejected(self, field):
        """No latency exceeds NaN, so a NaN objective would arm nothing."""
        with pytest.raises(ValueError, match="positive"):
            SloConfig(**{field: float("nan")})

    def test_violations_by_kind(self):
        slo = SloConfig(ttft=0.5, tbt=0.1)
        assert slo.armed
        assert slo.violations(0.4, 0.05) == []
        assert slo.violations(0.6, 0.05) == ["ttft"]
        assert slo.violations(0.4, 0.2) == ["tbt"]
        assert slo.violations(0.6, 0.2) == ["ttft", "tbt"]
        # Boundary is inclusive: exactly meeting the objective passes.
        assert slo.violations(0.5, 0.1) == []

    def test_partial_arming(self):
        assert SloConfig(ttft=1.0).violations(2.0, 99.0) == ["ttft"]
        assert SloConfig(tbt=1.0).violations(99.0, 0.5) == []

    def test_as_dict(self):
        assert SloConfig(ttft=0.25).as_dict() == {"ttft": 0.25, "tbt": None}


class TestFlightRecorder:
    def test_record_and_finish_pops_ring(self):
        flight = FlightRecorder()
        flight.record(7, "admit", 0.0, conv_id=3)
        flight.record(7, "batch_join", 0.5)
        events = flight.finish(7)
        assert [e.event for e in events] == ["admit", "batch_join"]
        assert events[0].attrs == {"conv_id": 3}
        assert flight.finish(7) == []  # popped
        assert flight.finish(999) == []  # unknown request tolerated
        assert flight.in_flight == 0

    def test_ring_is_bounded_but_ledger_is_exact(self):
        flight = FlightRecorder()
        total = RING_CAPACITY + 36
        for i in range(total):
            flight.record(1, "suspend", float(i))
        events = flight.finish(1)
        assert len(events) == RING_CAPACITY
        assert [e.t for e in events] == [
            float(i) for i in range(total - RING_CAPACITY, total)
        ]
        # Ledger saw every record, evictions included.
        assert flight.event_counts == {"suspend": total}
        assert flight.event_count("suspend") == total

    def test_count_parameter_feeds_ledger_once_per_burst(self):
        flight = FlightRecorder()
        flight.record(1, "retry", 0.1, count=3, site="swap_in")
        assert flight.event_count("retry") == 3
        assert len(flight.finish(1)) == 1  # one ring event for the burst

    def test_tier_attribute_shards_ledger_key(self):
        flight = FlightRecorder()
        flight.record(1, "swap_in", 0.1, tier="cpu", tokens=16)
        flight.record(1, "swap_in", 0.2, tier="cpu", tokens=32)
        flight.record(2, "swap_in", 0.3, tier="disk", tokens=64)
        assert flight.event_counts == {"swap_in.cpu": 2, "swap_in.disk": 1}
        assert flight.event_count("swap_in", tier="cpu") == 2
        assert flight.event_count("swap_in", tier="disk") == 1
        assert flight.event_count("swap_in") == 0  # untiered key unused

    def test_discard_in_flight_keeps_the_ledger(self):
        flight = FlightRecorder()
        flight.record(1, "admit", 0.0)
        flight.record(2, "admit", 0.1)
        flight.discard_in_flight()
        assert flight.in_flight == 0
        assert flight.finish(1) == []
        assert flight.event_count("admit") == 2

    def test_capture_with_explicit_events(self):
        flight = FlightRecorder()
        flight.record(5, "admit", 0.0)
        timeline = flight.finish(5)
        flight.capture(5, "slo:ttft", 1.0, events=timeline, ttft=0.9)
        (entry,) = flight.captures
        assert entry["request_id"] == 5
        assert entry["reason"] == "slo:ttft"
        assert entry["ttft"] == 0.9
        assert entry["events"] == [{"t": 0.0, "event": "admit"}]

    def test_capture_snapshots_live_ring(self):
        flight = FlightRecorder()
        flight.record(5, "admit", 0.0)
        flight.capture(5, "probe", 0.5)
        assert flight.captures[0]["events"][0]["event"] == "admit"
        # Ring stays live after a snapshot capture.
        assert flight.in_flight == 1
        assert len(flight.finish(5)) == 1

    def test_capture_rollover_counts_drops(self):
        flight = FlightRecorder()
        for i in range(MAX_CAPTURES + 2):
            flight.capture(i, "slo:tbt", float(i))
        assert len(flight.captures) == MAX_CAPTURES
        assert flight.dropped_captures == 2
        assert flight.captured_request_ids() == list(range(2, MAX_CAPTURES + 2))

    def test_dump_captures_jsonl(self, tmp_path):
        flight = FlightRecorder()
        flight.record(1, "admit", 0.0)
        flight.capture(1, "failed:gpu_alloc", 2.0, events=flight.finish(1))
        flight.capture(2, "slo:ttft", 3.0)
        path = tmp_path / "captures.jsonl"
        assert flight.dump_captures(path) == 2
        lines = path.read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        assert [r["request_id"] for r in rows] == [1, 2]
        assert rows[0]["events"][0]["event"] == "admit"
        # File-like targets work too.
        buffer = io.StringIO()
        assert flight.dump_captures(buffer) == 2
        assert buffer.getvalue().count("\n") == 2

    def test_event_repr_and_dict(self):
        event = FlightEvent(1.25, "swap_out", {"tier": "cpu"})
        assert event.as_dict() == {"t": 1.25, "event": "swap_out", "tier": "cpu"}
        assert "swap_out" in repr(event)


class TestNullFlight:
    def test_null_recorder_is_freely_callable(self):
        assert NULL_FLIGHT.enabled is False
        assert isinstance(NULL_FLIGHT, NullFlightRecorder)
        NULL_FLIGHT.record(1, "admit", 0.0, conv_id=2)
        NULL_FLIGHT.capture(1, "slo:ttft", 1.0)
        assert NULL_FLIGHT.finish(1) == []
        assert NULL_FLIGHT.event_counts == {}
        assert NULL_FLIGHT.event_count("admit") == 0
        assert NULL_FLIGHT.captures == []
        assert NULL_FLIGHT.dump_captures(io.StringIO()) == 0

    def test_recording_instance_reports_enabled(self):
        assert FlightRecorder().enabled is True
        assert bool(FlightRecorder())


class TestSharedAcrossRuns:
    def test_sweep_timelines_never_splice(self):
        """One recorder shared by every rate of a sweep: request ids
        restart in each run, so a ring left open at one run's horizon
        must not absorb the next run's request with the same id."""
        flight = FlightRecorder()
        run_rate_sweep(
            lambda loop: PensieveEngine(loop, OPT_13B, A100_80GB),
            SHAREGPT,
            rates=(8.0, 20.0),
            duration=30.0,
            seed=3,
            slo=SloConfig(ttft=1e-6),
            hist=HistogramSet(),
            flight=flight,
        )
        assert flight.captures
        for capture in flight.captures:
            names = [e["event"] for e in capture["events"]]
            times = [e["t"] for e in capture["events"]]
            assert names.count("admit") == 1, names
            assert times == sorted(times), times
        assert flight.in_flight == 0
