"""Null-path overhead guard: with the SLO layer disabled, the serving
hot loop must not even *call into* the null sinks.

The null tracer's contract (ARCHITECTURE.md §9) extends to histograms
and the flight recorder: every instrumentation site guards on
``.enabled`` before computing sample values, so the disabled path does
zero work — no method dispatch, no dict lookups, no allocations.  This
test pins that guarantee deterministically by spying on the shared null
singletons, and on the engines' one request-event emitter, during a full
unarmed serving run.
"""

from repro.core.engine import PensieveEngine
from repro.experiments.common import run_serving_once
from repro.obs.flight import NULL_FLIGHT
from repro.obs.histogram import NULL_HISTOGRAM, NULL_HISTOGRAMS
from repro.serving.engine import EngineBase

from tests.serving.conftest import TINY, scripted_conversation, spec_with_capacity


def _workload():
    return [
        scripted_conversation(i, [(24, 12), (16, 12)], start=0.05 * i, think=0.2)
        for i in range(6)
    ]


def _factory(loop):
    spec = spec_with_capacity(256)
    return PensieveEngine(loop, TINY, spec, chunk_size=16, policy="lru")


class TestNullSinksNeverInvoked:
    def test_unarmed_run_makes_zero_sink_calls(self, monkeypatch):
        calls = {"hist": 0, "record": 0, "finish": 0, "capture": 0, "_event": 0}

        def spy(name, original):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(
            type(NULL_HISTOGRAMS), "hist", spy("hist", type(NULL_HISTOGRAMS).hist)
        )
        monkeypatch.setattr(
            type(NULL_FLIGHT), "record", spy("record", type(NULL_FLIGHT).record)
        )
        monkeypatch.setattr(
            type(NULL_FLIGHT), "finish", spy("finish", type(NULL_FLIGHT).finish)
        )
        monkeypatch.setattr(
            type(NULL_FLIGHT), "capture", spy("capture", type(NULL_FLIGHT).capture)
        )
        monkeypatch.setattr(EngineBase, "_event", spy("_event", EngineBase._event))
        engine, stats = run_serving_once(_factory, _workload(), until=40.0)
        assert stats.num_requests > 0  # every admission reached an event site
        assert calls == {
            "hist": 0, "record": 0, "finish": 0, "capture": 0, "_event": 0
        }

    def test_unarmed_collector_shares_the_singletons(self):
        engine, _ = run_serving_once(_factory, _workload(), until=40.0)
        # Shared process-wide singletons: arming one run can never have
        # allocated per-engine null objects.
        assert engine.metrics.hist is NULL_HISTOGRAMS
        assert engine.metrics.flight is NULL_FLIGHT
        assert NULL_HISTOGRAMS.hist("anything") is NULL_HISTOGRAM
