"""Off-path guard: telemetry off is ``None``, and an unarmed run makes no
telemetry call.

An unarmed engine holds ``tracer = None`` (as do its loop, cache manager
and link) and a collector with ``hist = None`` and ``flight = None``.
Every instrumentation site tests ``is not None`` before it computes a
sample or calls in, so a stray call on the off path raises instead of
passing silently: every unarmed tier-1 run enforces the contract.  This
module pins the sinks' state after a full unarmed serving run, and spies
on the engines' one request-event emitter, which the run must never
reach.
"""

from repro.core.engine import PensieveEngine
from repro.experiments.common import run_serving_once
from repro.serving.engine import EngineBase

from tests.serving.conftest import TINY, scripted_conversation, spec_with_capacity


def _workload():
    return [
        scripted_conversation(i, [(24, 12), (16, 12)], start=0.05 * i, think=0.2)
        for i in range(6)
    ]


def _factory(loop):
    spec = spec_with_capacity(256, cpu_memory_bytes=TINY.kv_bytes_per_token * 96)
    return PensieveEngine(loop, TINY, spec, chunk_size=16, policy="lru")


def _unarmed_run():
    engine, stats = run_serving_once(_factory, _workload(), until=40.0)
    assert stats.num_requests > 0  # every admission reached an event site
    return engine


class TestNullSinksNeverInvoked:
    def test_unarmed_run_makes_zero_sink_calls(self, monkeypatch):
        calls = []
        original = EngineBase._event

        def spy(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(EngineBase, "_event", spy)
        _unarmed_run()
        assert calls == []

    def test_unarmed_run_never_calls_the_null_tracer(self):
        engine = _unarmed_run()
        assert engine.manager.stats["swapped_out_tokens"] > 0  # tiers worked
        owners = [engine, engine.loop, engine.manager, engine.pcie]
        assert [owner.tracer for owner in owners] == [None] * len(owners)

    def test_unarmed_collector_shares_the_singletons(self):
        metrics = _unarmed_run().metrics
        assert metrics.hist is None
        assert metrics.flight is None
        report = metrics.slo_report()
        assert (report["captures"], report["dropped_captures"]) == (0, 0)
