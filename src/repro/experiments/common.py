"""Shared experiment machinery: serving runs, rate sweeps, curve queries.

The latency–throughput methodology follows the paper's end-to-end
evaluation (§6.2): for each request rate, a fixed scripted workload is
served to completion by each engine; the achieved throughput and the
normalized latency are one point of the engine's curve.  "Throughput at a
latency target" is then read off the curve by interpolation — this is how
the paper states results like "1.36x the throughput of vLLM at 120 ms per
token latency".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.serving.engine import EngineBase
from repro.serving.request import Conversation
from repro.sim.events import EventLoop
from repro.workload.dataset import DatasetSpec, generate_workload
from repro.workload.driver import ConversationDriver

#: Builds a fresh engine bound to the given loop.
EngineFactory = Callable[[EventLoop], EngineBase]

#: Share of a sweep point's duration spent warming up, excluded from its
#: statistics.
WARMUP_FRACTION = 0.3

#: Safety valve on one serving run's event count: a run that dispatches
#: more events than this has stopped making progress.
MAX_EVENTS = 50_000_000


@dataclass(frozen=True)
class RatePoint:
    """One point of a latency–throughput curve."""

    request_rate: float
    throughput_rps: float
    mean_norm_latency: float
    p90_norm_latency: float
    num_requests: int
    extras: Dict[str, float]


def run_serving_once(
    engine_factory: EngineFactory,
    conversations: Sequence[Conversation],
    until: Optional[float] = None,
    warmup: float = 0.0,
    tracer=None,
    slo=None,
    hist=None,
    flight=None,
    sampler=None,
) -> tuple:
    """Serve one scripted workload (to completion, or up to ``until``).

    Returns ``(engine, stats)``; the engine is returned so callers can
    inspect traces, cache statistics or suspension counters.  Passing a
    :class:`repro.obs.Tracer` records the run's full span/counter/gauge
    telemetry (still-open request spans are closed, marked truncated, at
    the simulation's end time).

    Passing any of ``slo`` (:class:`repro.obs.SloConfig`), ``hist``
    (:class:`repro.obs.HistogramSet`) or ``flight``
    (:class:`repro.obs.FlightRecorder`) arms the engine's SLO metrics
    layer — shared ``hist``/``flight`` instances let sweeps aggregate
    across runs (the flight rings of requests still in flight at the end
    are discarded, so the next run's reused request ids start clean).  A
    :class:`repro.obs.MetricsSampler` passed as ``sampler`` is attached
    to the loop before the run starts.
    """
    loop = EventLoop()
    engine = engine_factory(loop)
    if tracer is not None:
        engine.set_tracer(tracer)
    if slo is not None or hist is not None or flight is not None:
        engine.metrics.enable_slo(slo=slo, hist=hist, flight=flight)
    if sampler is not None:
        sampler.attach(loop, engine)
    driver = ConversationDriver(loop, engine, conversations)
    driver.run(until=until, max_events=MAX_EVENTS)
    # Nothing resumes this loop: the events a horizon cut off hold bound
    # methods of the engine and its ConversationDriver, a cycle.
    loop.discard_pending()
    if tracer is not None:
        tracer.close_open(loop.now)
    flight = engine.metrics.flight
    if flight is not None:
        flight.discard_in_flight()
    return engine, driver.stats(warmup=warmup, until=until)


def run_rate_sweep(
    engine_factory: EngineFactory,
    dataset: DatasetSpec,
    rates: Sequence[float],
    duration: float = 600.0,
    think_time_mean: float = 60.0,
    seed: int = 7,
    extras_fn: Optional[Callable[[EngineBase], Dict[str, float]]] = None,
    tracer=None,
    slo=None,
    hist=None,
    flight=None,
) -> List[RatePoint]:
    """Sweep request rates and collect one latency–throughput curve.

    For each rate, conversation arrivals are sustained over ``duration``
    simulated seconds (open-loop: the offered load never dries up inside
    the measurement window) and statistics are taken over
    ``(WARMUP_FRACTION * duration, duration]`` — so in the stable regime
    the measured throughput tracks the offered rate, and past saturation
    it plateaus at system capacity while latency climbs, which is exactly
    the curve shape of Figures 10/11.

    Every engine under comparison must be swept with the same ``seed`` so
    the scripted conversations (lengths, think times, arrival pattern) are
    identical across systems.

    ``slo`` / ``hist`` / ``flight`` are forwarded to every per-rate run;
    passing one shared :class:`repro.obs.HistogramSet` /
    :class:`repro.obs.FlightRecorder` aggregates SLO metrics across the
    whole sweep (each rate gets a fresh engine, the sinks persist).
    """
    # Draw every workload first: a bad input is refused before any run.
    workloads = [
        generate_workload(
            dataset,
            request_rate=rate,
            duration=duration,
            think_time_mean=think_time_mean,
            seed=seed,
        )
        for rate in rates
    ]
    points: List[RatePoint] = []
    for rate, conversations in zip(rates, workloads):
        if tracer is not None:
            tracer.instant("sweep_point", track="experiment", rate=rate)
        engine, stats = run_serving_once(
            engine_factory,
            conversations,
            until=duration,
            warmup=WARMUP_FRACTION * duration,
            tracer=tracer,
            slo=slo,
            hist=hist,
            flight=flight,
        )
        extras = extras_fn(engine) if extras_fn else {}
        points.append(
            RatePoint(
                request_rate=rate,
                throughput_rps=stats.throughput_rps,
                mean_norm_latency=stats.mean_normalized_latency,
                p90_norm_latency=stats.p90_normalized_latency,
                num_requests=stats.num_requests,
                extras=extras,
            )
        )
    return points


def throughput_at_latency(
    points: Sequence[RatePoint],
    latency_target: float,
) -> float:
    """Maximum achieved throughput whose mean normalized latency is within
    ``latency_target`` seconds/token, linearly interpolating between the
    last compliant and the first violating point of the curve.

    Falls back to the best compliant point when the curve never crosses
    the target, and to 0 if even the lightest load violates it.
    """
    if not points:
        raise ValueError("empty curve")
    ordered = sorted(points, key=lambda p: p.request_rate)
    best = 0.0
    for i, point in enumerate(ordered):
        if point.mean_norm_latency <= latency_target:
            best = max(best, point.throughput_rps)
            nxt = ordered[i + 1] if i + 1 < len(ordered) else None
            if nxt is not None and nxt.mean_norm_latency > latency_target:
                # Interpolate the crossing between this point and the next.
                span = nxt.mean_norm_latency - point.mean_norm_latency
                if span > 0:
                    frac = (latency_target - point.mean_norm_latency) / span
                    best = max(
                        best,
                        point.throughput_rps
                        + frac * (nxt.throughput_rps - point.throughput_rps),
                    )
    return best


def format_curve_table(name: str, points: Sequence[RatePoint]) -> str:
    """Human-readable curve table for experiment reports."""
    lines = [f"== {name} =="]
    lines.append(
        f"{'rate':>6} {'thr(req/s)':>11} {'mean nlat(ms)':>14} {'p90 nlat(ms)':>13}"
    )
    for p in sorted(points, key=lambda p: p.request_rate):
        lines.append(
            f"{p.request_rate:>6.2f} {p.throughput_rps:>11.3f} "
            f"{p.mean_norm_latency * 1e3:>14.1f} {p.p90_norm_latency * 1e3:>13.1f}"
        )
    return "\n".join(lines)
