"""SLO-layer reconciliation: histogram totals and flight-recorder event
counts must agree — exactly, not approximately — with the independent
ledgers the engine components keep (the PCIe transfer history, cache
manager stats, the metrics collector's request records).

The workload has small GPU and CPU tiers, so both swap paths (in and
out) and recomputation are exercised in one run.  The run drains (every
conversation completes before the horizon), which makes the per-request
identities exact:

- every histogram swap sample corresponds to exactly one transfer in the
  PCIe history for that direction;
- TTFT samples count requests; TTFT+TBT samples count produced tokens;
- recompute histogram mass equals the cache manager's recomputed-token
  ledger;
- the Prometheus snapshot is self-reconciling: its histogram ``_count``
  series equal the ``ledger.*`` counters embedded in the same artifact.
"""

import json

import pytest

from repro.cli import main
from repro.core.engine import PensieveEngine
from repro.experiments.common import run_serving_once
from repro.faults import FaultPlan, FaultSite
from repro.gpu.link import Direction
from repro.obs import (
    FlightRecorder,
    HistogramSet,
    MetricsSampler,
    SloConfig,
    ledger_counters,
    parse_prometheus,
    prometheus_snapshot,
)

from tests.serving.conftest import TINY, scripted_conversation, spec_with_capacity

UNTIL = 200.0

#: Every histogram recorded on the sim clock by the engines and the
#: metrics collector, and on the wall clock by ``repro chat`` (the last
#: two); exported to Prometheus as ``repro_<name>``.
HISTOGRAMS = frozenset({
    "latency_seconds", "norm_latency_seconds", "queue_wait_seconds",
    "ttft_seconds", "tbt_seconds", "swap_in_seconds", "swap_out_seconds",
    "recompute_tokens", "recompute_est_seconds",
    "chat_turn_seconds", "chat_token_seconds",
})
#: ``tier=`` labels of the swap histograms and the flight swap events.
TIERS = frozenset({"cpu"})
#: Flight-recorder lifecycle events (ledger keys are ``event`` or
#: ``event.tier``; a preemption records as ``suspend``).
FLIGHT_EVENTS = frozenset({
    "admit", "batch_join", "suspend", "swap_out", "swap_in", "recompute",
    "retry", "fault", "abort", "finish",
})


def _events(flight, key):
    """The flight ledger's exact count for ``event`` or ``event.tier``."""
    return flight.event_counts.get(key, 0)


def _total(hist, name, field):
    """``count`` or ``sum`` over every label variant of histogram ``name``."""
    return sum(getattr(h, field) for h in hist.all() if h.name == name)


def _workload():
    """Multi-turn conversations that overflow GPU *and* CPU tiers."""
    return [
        scripted_conversation(
            i, [(24, 12), (16, 12), (12, 10)], start=0.05 * i, think=0.3
        )
        for i in range(8)
    ]


def _factory(loop):
    spec = spec_with_capacity(192, cpu_memory_bytes=TINY.kv_bytes_per_token * 96)
    return PensieveEngine(loop, TINY, spec, chunk_size=16, policy="lru")


def _run(slo=None, hist=None, flight=None, sampler=None):
    return run_serving_once(
        _factory,
        _workload(),
        until=UNTIL,
        warmup=0.0,
        slo=slo,
        hist=hist,
        flight=flight,
        sampler=sampler,
    )


@pytest.fixture(scope="module")
def armed_run():
    """One SLO-armed run shared by the read-only identity tests."""
    hist, flight = HistogramSet(), FlightRecorder()
    engine, stats = _run(slo=SloConfig(ttft=60.0, tbt=60.0), hist=hist, flight=flight)
    return engine, stats, hist, flight


def _transfers(history, direction):
    return [r for r in history if r.direction is direction]


class TestLedgerIdentities:
    def test_run_drains_and_exercises_every_tier(self, armed_run):
        engine, stats, hist, _ = armed_run
        assert engine.num_waiting == 0 and engine.num_running == 0
        assert not engine.metrics.failures
        assert engine.pcie.bytes_moved[Direction.H2D] > 0
        assert engine.manager.stats["recomputed_tokens"] > 0
        # Every swap histogram × every tier label.
        for name in ("swap_in_seconds", "swap_out_seconds"):
            for tier in sorted(TIERS):
                found = hist.get(name, tier=tier)
                assert found is not None and found.count > 0, (name, tier)

    def test_cpu_swap_in_count_matches_pcie_and_flight(self, armed_run):
        engine, _, hist, flight = armed_run
        h2d = len(_transfers(engine.pcie.history, Direction.H2D))
        assert hist.get("swap_in_seconds", tier="cpu").count == h2d
        assert _events(flight, "swap_in.cpu") == h2d

    def test_cpu_swap_out_count_matches_pcie(self, armed_run):
        engine, _, hist, flight = armed_run
        d2h = len(_transfers(engine.pcie.history, Direction.D2H))
        assert hist.get("swap_out_seconds", tier="cpu").count == d2h
        # Flight swap-outs are attributed to a suspended request; demand /
        # ahead-of-time background copies have no single owner, so the
        # flight ledger can only undercount — never overcount.
        assert 0 <= _events(flight, "swap_out.cpu") <= d2h

    def test_recompute_mass_matches_cache_ledger(self, armed_run):
        engine, _, hist, flight = armed_run
        assert _total(hist, "recompute_tokens", "sum") == (
            engine.manager.stats["recomputed_tokens"]
        )
        assert _total(hist, "recompute_tokens", "count") == _events(
            flight, "recompute"
        )
        assert _total(hist, "recompute_est_seconds", "count") == _total(
            hist, "recompute_tokens", "count"
        )

    def test_queue_wait_counts_batch_joins(self, armed_run):
        _, _, hist, flight = armed_run
        joins = _events(flight, "batch_join")
        assert joins > 0
        assert hist.get("queue_wait_seconds").count == joins

    def test_token_samples_reconcile_with_records(self, armed_run):
        engine, _, hist, flight = armed_run
        records = engine.metrics.records
        # Drained fault-free run: one TTFT sample per completed request,
        # one sample per produced token across TTFT+TBT.
        assert hist.get("ttft_seconds").count == len(records)
        assert hist.get("ttft_seconds").count + hist.get("tbt_seconds").count == (
            sum(r.output_tokens for r in records)
        )
        assert hist.get("latency_seconds").count == len(records)
        assert _events(flight, "admit") == len(records)
        assert _events(flight, "finish") == len(records)

    def test_record_timelines_bookended(self):
        """An objective every request violates captures every completed
        request's flight timeline, bookended by its admit and finish."""
        flight = FlightRecorder()
        engine, _ = _run(slo=SloConfig(ttft=1e-9), flight=flight)
        records = engine.metrics.records
        assert records and not engine.metrics.failures
        captures = flight.captures
        assert [c["request_id"] for c in captures] == [
            r.request_id for r in records
        ]
        for capture in captures:
            names = [e["event"] for e in capture["events"]]
            assert names[0] == "admit"
            assert names[-1] == "finish"
            assert "batch_join" in names
            times = [e["t"] for e in capture["events"]]
            assert times == sorted(times)

    def test_fault_ledger_zero_without_plan(self, armed_run):
        engine, _, _, flight = armed_run
        assert engine.metrics.faults.retries == 0
        assert _events(flight, "retry") == 0
        assert _events(flight, "fault") == 0

    def test_recorded_names_are_declared(self, armed_run):
        """Everything this real run recorded is a name this suite expects
        (a typo in a recording site fails here)."""
        _, _, hist, flight = armed_run
        for h in hist.all():
            assert h.name in HISTOGRAMS, h.name
            tier = h.labels.get("tier")
            assert tier is None or tier in TIERS
        seen_events = {key.split(".")[0] for key in flight.event_counts}
        assert seen_events <= FLIGHT_EVENTS


def _faulted_suspending_run():
    """Four conversations outgrowing a 256-token GPU tier (§4.3.5
    suspensions and their swap-outs) under an armed fault plan (retries,
    faults and one aborted request)."""
    plan = FaultPlan(
        seed=1, rates={s: 0.15 * s.rate_scale for s in FaultSite}
    )

    def factory(loop):
        return PensieveEngine(
            loop, TINY, spec_with_capacity(256), cpu_cache_tokens=4096,
            chunk_size=16, policy="lru", fault_plan=plan,
        )

    hist, flight = HistogramSet(), FlightRecorder()
    convs = [scripted_conversation(i, [(40, 80)], start=0.01 * i) for i in range(4)]
    run_serving_once(
        factory, convs, until=UNTIL, slo=SloConfig(), hist=hist, flight=flight
    )
    return hist, flight


def _chat_wall_histograms(tmp_path, monkeypatch):
    """The wall-clock histograms one metrics-armed ``repro chat`` turn
    records, read back from its Prometheus snapshot."""
    lines = iter(["hello there"])

    def scripted_input(prompt=""):
        try:
            return next(lines)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", scripted_input)
    assert main(["chat", "--max-tokens", "2", "--metrics-out", str(tmp_path)]) == 0
    parsed = parse_prometheus((tmp_path / "chat_metrics.prom").read_text())
    return {
        name for name in HISTOGRAMS if f"repro_{name}_count" in parsed
    }


class TestDeclaredNames:
    def test_every_declared_name_is_recorded(self, armed_run, tmp_path, monkeypatch):
        """The other direction of ``test_recorded_names_are_declared``:
        every expected histogram, tier label and flight event is recorded
        by a real run — the drained two-tier run above, a fault-armed
        run that suspends, and a metrics-armed chat turn.  An expected
        name that nothing records fails here."""
        _, _, hist, flight = armed_run
        faulted_hist, faulted_flight = _faulted_suspending_run()
        hists = [*hist.all(), *faulted_hist.all()]
        names = {h.name for h in hists} | _chat_wall_histograms(tmp_path, monkeypatch)
        assert names == HISTOGRAMS
        tiers = {h.labels["tier"] for h in hists if "tier" in h.labels}
        assert tiers == TIERS
        events = {
            key.split(".")[0]
            for recorder in (flight, faulted_flight)
            for key in recorder.event_counts
        }
        assert events == FLIGHT_EVENTS


class TestPrometheusSelfReconciliation:
    def test_snapshot_counts_equal_embedded_ledgers(self, armed_run):
        engine, _, _, _ = armed_run
        text = prometheus_snapshot(
            collector=engine.metrics, counters=ledger_counters(engine)
        )
        parsed = parse_prometheus(text)
        cpu = (("tier", "cpu"),)
        assert parsed["repro_swap_in_seconds_count"][cpu] == (
            parsed["repro_ledger_pcie_h2d_transfers_total"][()]
        )
        assert parsed["repro_swap_out_seconds_count"][cpu] == (
            parsed["repro_ledger_pcie_d2h_transfers_total"][()]
        )
        assert parsed["repro_recompute_tokens_sum"][()] == (
            parsed["repro_ledger_cache_recomputed_tokens_total"][()]
        )
        assert parsed["repro_requests_completed_total"][()] == len(
            engine.metrics.records
        )
        assert parsed["repro_flight_events_batch_join_total"][()] == (
            parsed["repro_queue_wait_seconds_count"][()]
        )

    def test_bucket_series_are_cumulative_and_capped(self, armed_run):
        engine, _, _, _ = armed_run
        parsed = parse_prometheus(prometheus_snapshot(collector=engine.metrics))
        buckets = parsed["repro_ttft_seconds_bucket"]
        finite = sorted(
            (float(dict(labels)["le"]), value)
            for labels, value in buckets.items()
            if dict(labels)["le"] != "+Inf"
        )
        values = [v for _, v in finite]
        assert values == sorted(values)
        inf_key = next(k for k in buckets if dict(k)["le"] == "+Inf")
        assert buckets[inf_key] == parsed["repro_ttft_seconds_count"][()]
        assert values[-1] == buckets[inf_key]


class TestCapturePolicy:
    def test_every_violating_request_has_a_dumped_timeline(self, tmp_path):
        hist, flight = HistogramSet(), FlightRecorder()
        # Unreachably tight objectives: every completion violates.
        engine, stats = _run(
            slo=SloConfig(ttft=1e-6, tbt=1e-6), hist=hist, flight=flight
        )
        collector = engine.metrics
        assert collector.slo_violated_requests
        assert set(collector.slo_violated_requests) <= {
            c["request_id"] for c in flight.captures
        }
        assert len(collector.slo_violated_requests) == len(collector.records)
        assert collector.slo_violations["ttft"] == len(collector.records)
        report = collector.slo_report()
        assert report["violated_requests"] == len(collector.records)
        assert report["captures"] == len(flight.captures)
        path = tmp_path / "captures.jsonl"
        assert flight.dump_captures(path) == len(flight.captures)
        for line in path.read_text().splitlines():
            entry = json.loads(line)
            assert entry["reason"].startswith("slo:")
            assert entry["events"], "captured timeline must not be empty"

    def test_loose_slo_captures_nothing(self, armed_run):
        engine, _, _, flight = armed_run
        assert engine.metrics.slo_violated_requests == []
        assert flight.captures == []


class TestNoPerturbation:
    def test_armed_run_equals_unarmed_run(self):
        """The SLO layer must observe, never perturb: all user-visible
        outputs of an armed run equal the unarmed run's."""
        engine_a, stats_a = _run()
        engine_b, stats_b = _run(
            slo=SloConfig(ttft=0.5, tbt=0.2),
            hist=HistogramSet(),
            flight=FlightRecorder(),
        )
        assert stats_a.as_dict() == stats_b.as_dict()
        assert engine_a.manager.stats == engine_b.manager.stats
        assert engine_a.pcie.bytes_moved == engine_b.pcie.bytes_moved
        assert engine_a.suspensions == engine_b.suspensions

    def test_unarmed_engine_keeps_null_sinks(self):
        engine, _ = _run()
        assert engine.metrics.hist is None
        assert engine.metrics.flight is None
        assert engine.metrics.slo is None


class TestSamplerOnRealRun:
    def test_sampler_rows_track_completions(self, tmp_path):
        hist, flight = HistogramSet(), FlightRecorder()
        sampler = MetricsSampler(interval=1.0, horizon=UNTIL)
        engine, stats = _run(
            slo=SloConfig(ttft=60.0), hist=hist, flight=flight, sampler=sampler
        )
        assert sampler.rows
        assert all(r["t"] <= UNTIL for r in sampler.rows)
        times = [r["t"] for r in sampler.rows]
        assert times == sorted(times)
        assert sampler.rows[-1]["finished"] == len(engine.metrics.records)
        assert "kv_cpu_used_tokens" in sampler.rows[-1]
        assert sampler.rows[-1]["ttft_seconds_count"] == (
            hist.get("ttft_seconds").count
        )
        path = tmp_path / "metrics.jsonl"
        lines = sampler.write_jsonl(path)
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(rows) == lines == len(sampler.rows) + 1
        assert rows[0]["format"] == "repro-metrics-jsonl"
        assert all(r["type"] == "sample" for r in rows[1:])
