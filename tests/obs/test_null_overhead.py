"""Null-path overhead guard: with the SLO layer disabled, the serving
hot loop must not even *call into* the null sinks.

The null tracer's contract (ARCHITECTURE.md §9) extends to histograms
and the flight recorder: every instrumentation site guards on
``.enabled`` before computing sample values, so the disabled path does
zero work — no method dispatch, no dict lookups, no allocations.  This
test pins that guarantee deterministically by spying on the shared null
singletons (null tracer included), and on the engines' one request-event
emitter, during a full unarmed serving run.
"""

from repro.core.engine import PensieveEngine
from repro.experiments.common import run_serving_once
from repro.obs.flight import NULL_FLIGHT
from repro.obs.histogram import NULL_HISTOGRAM, NULL_HISTOGRAMS
from repro.obs.tracer import NULL_TRACER, NullTracer
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


#: Every method of the shared null sinks; an unarmed run calls none.
_NULL_SINK_METHODS = [
    (type(NULL_HISTOGRAMS), "hist"),
    (type(NULL_FLIGHT), "record"),
    (type(NULL_FLIGHT), "finish"),
    (type(NULL_FLIGHT), "capture"),
    (EngineBase, "_event"),
]

#: Every method of the null tracer; an unarmed run calls none.
_NULL_TRACER_METHODS = [
    (NullTracer, name)
    for name in ("begin", "end", "complete", "instant", "count", "gauge")
]


def _count_calls_in_unarmed_run(monkeypatch, methods):
    """Spy on ``methods`` through one unarmed run; return the call counts."""
    calls = {f"{owner.__name__}.{name}": 0 for owner, name in methods}

    def spy(key, original):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        return wrapped

    for owner, name in methods:
        key = f"{owner.__name__}.{name}"
        monkeypatch.setattr(owner, name, spy(key, getattr(owner, name)))
    engine, stats = run_serving_once(_factory, _workload(), until=40.0)
    assert stats.num_requests > 0  # every admission reached an event site
    return engine, calls


class TestNullSinksNeverInvoked:
    def test_unarmed_run_makes_zero_sink_calls(self, monkeypatch):
        _, calls = _count_calls_in_unarmed_run(monkeypatch, _NULL_SINK_METHODS)
        assert calls == dict.fromkeys(calls, 0)

    def test_unarmed_run_never_calls_the_null_tracer(self, monkeypatch):
        engine, calls = _count_calls_in_unarmed_run(
            monkeypatch, _NULL_TRACER_METHODS
        )
        assert engine.tracer is NULL_TRACER
        assert calls == dict.fromkeys(calls, 0)

    def test_unarmed_collector_shares_the_singletons(self):
        engine, _ = run_serving_once(_factory, _workload(), until=40.0)
        # Shared process-wide singletons: arming one run can never have
        # allocated per-engine null objects.
        assert engine.metrics.hist is NULL_HISTOGRAMS
        assert engine.metrics.flight is NULL_FLIGHT
        assert NULL_HISTOGRAMS.hist("anything") is NULL_HISTOGRAM
