"""Trace & metrics exporters: JSONL, Chrome trace JSON, text, Prometheus.

All exporters read a finished :class:`~repro.obs.tracer.Tracer`; none of
them mutate it, so a run can be exported to every format.

- **JSONL** — one JSON object per line, ``type`` discriminated
  (``meta`` / ``span`` / ``event`` / ``gauge`` / ``counter``).  This is
  the machine-readable ground truth: counters in the log reconcile
  exactly with the cost/transfer models' own totals (asserted by
  ``tests/obs/test_instrumentation.py``).
- **Chrome trace-event JSON** — the ``traceEvents`` array format consumed
  by Perfetto and ``chrome://tracing``.  Spans become complete (``"X"``)
  events, instants become ``"i"`` events, gauge samples become counter
  (``"C"``) tracks.  Timestamps are microseconds on the primary clock.
- **Text report** — the one span rollup: per-stage (span name) count,
  total, mean and max, the slowest spans with their attributes, a
  per-conversation rollup, counter totals and gauge min/mean/max, for
  reading in a terminal.
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.histogram import HistogramSet
from repro.obs.tracer import Tracer

#: Schema version stamped into the JSONL meta line and chrome metadata.
SCHEMA_VERSION = 2


def write_jsonl(path: str | os.PathLike[str], records: Iterable[Any]) -> int:
    """Write ``records`` to ``path`` as JSON Lines with sorted keys;
    returns the line count."""
    lines = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            lines += 1
    return lines


def _jsonable(value: Any) -> Any:
    """Coerce payload values to something ``json.dumps`` accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _span_record(span) -> Dict[str, Any]:
    return {
        "type": "span",
        "id": span.id,
        "parent": span.parent,
        "name": span.name,
        "t0": span.t0,
        "t1": span.t1,
        "wall0": round(span.wall0, 9),
        "wall1": None if span.wall1 is None else round(span.wall1, 9),
        "attrs": {k: _jsonable(v) for k, v in span.attrs.items()},
    }


def to_jsonl(tracer: Tracer, path: str | os.PathLike[str]) -> int:
    """Write the full trace as JSON Lines; returns the line count."""
    records: List[Dict[str, Any]] = [
        {"type": "meta", "version": SCHEMA_VERSION, "format": "repro-trace-jsonl"}
    ]
    records.extend(_span_record(s) for s in tracer.spans)
    for name, t, wall, attrs in tracer.instants:
        records.append(
            {
                "type": "event",
                "name": name,
                "t": t,
                "wall": round(wall, 9),
                "attrs": {k: _jsonable(v) for k, v in attrs.items()},
            }
        )
    for name, t, wall, value in tracer.gauge_samples:
        records.append(
            {"type": "gauge", "name": name, "t": t, "wall": round(wall, 9),
             "value": value}
        )
    for name in sorted(tracer.counters):
        records.append(
            {"type": "counter", "name": name, "total": tracer.counters[name]}
        )
    return write_jsonl(path, records)


def _track_of(span_or_attrs: Dict[str, Any]) -> str:
    return str(span_or_attrs.get("track", "main"))


def to_chrome_trace(tracer: Tracer, path: str | os.PathLike[str]) -> Dict[str, Any]:
    """Write a Chrome trace-event JSON file on the primary clock; returns
    the document.

    Spans carrying a ``track`` attribute are grouped onto one named
    thread-track each (Perfetto renders them as labelled rows); everything
    else lands on the ``main`` track.

    Robustness guarantees (round-trip tested):

    - spans still open at export time are closed *on export* at the latest
      timestamp observed anywhere in the trace (``args.truncated`` marks
      them) without mutating the tracer;
    - every ``ts`` is non-negative and the emitted event array is
      **strictly monotonic** in ``ts`` (ties and out-of-order records are
      nudged forward by a sub-microsecond epsilon), which some trace
      viewers require;
    - the document is always valid JSON, open spans or not.
    """
    def us(t: float) -> float:
        return round(t * 1e6, 3)

    tracks: Dict[str, int] = {}

    def tid(track: str) -> int:
        if track not in tracks:
            tracks[track] = len(tracks) + 1
        return tracks[track]

    # Close-on-export horizon: the latest timestamp seen anywhere.
    spans = tracer.spans
    instants = tracer.instants
    gauges = tracer.gauge_samples
    horizon = 0.0
    for span in spans:
        horizon = max(horizon, span.t0 if span.t1 is None else span.t1)
    for _name, t, _wall, _attrs in instants:
        horizon = max(horizon, t)
    for _name, t, _wall, _value in gauges:
        horizon = max(horizon, t)

    events: List[Dict[str, Any]] = []
    for span in spans:
        truncated = span.t1 is None
        t1 = horizon if truncated else span.t1
        start = us(span.t0)
        args = {k: _jsonable(v) for k, v in span.attrs.items() if k != "track"}
        if truncated:
            args["truncated"] = True
        events.append(
            {
                "name": span.name,
                "cat": _track_of(span.attrs),
                "ph": "X",
                "ts": start,
                "dur": max(0.0, us(t1) - start),
                "pid": 1,
                "tid": tid(_track_of(span.attrs)),
                "args": args,
            }
        )
    for name, t, _wall, attrs in instants:
        events.append(
            {
                "name": name,
                "cat": _track_of(attrs),
                "ph": "i",
                "s": "t",
                "ts": us(t),
                "pid": 1,
                "tid": tid(_track_of(attrs)),
                "args": {k: _jsonable(v) for k, v in attrs.items() if k != "track"},
            }
        )
    for name, t, _wall, value in gauges:
        events.append(
            {
                "name": name,
                "ph": "C",
                "ts": us(t),
                "pid": 1,
                "tid": 0,
                "args": {"value": value},
            }
        )
    # Thread-name metadata leads the array; real events follow sorted by
    # timestamp, then every ts is clamped non-negative and nudged to be
    # strictly increasing across the whole array.
    meta_events: List[Dict[str, Any]] = []
    for track, track_tid in sorted(tracks.items(), key=lambda kv: kv[1]):
        meta_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": 1,
                "tid": track_tid,
                "args": {"name": track},
            }
        )
    events.sort(key=lambda e: e["ts"])
    events = meta_events + events
    epsilon = 0.001  # microseconds; below any modelled duration
    prev = -epsilon
    for event in events:
        ts = max(0.0, float(event["ts"]))
        if ts <= prev:
            ts = round(prev + epsilon, 3)
        event["ts"] = ts
        prev = ts
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "format": "repro-trace-chrome",
            "version": SCHEMA_VERSION,
            "timeAxis": "sim",
            "counters": {k: tracer.counters[k] for k in sorted(tracer.counters)},
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, sort_keys=True)
    return document


#: Individual spans listed, longest first, in the text report.
SLOWEST_SPANS = 10


def text_report(tracer: Tracer) -> str:
    """Human-readable rollups: per-stage, slowest spans, per-conversation,
    counters, gauges."""
    lines: List[str] = ["== trace report =="]

    # Per-stage (span-name) rollup on the primary clock.
    by_name: Dict[str, List[float]] = {}
    wall_by_name: Dict[str, float] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span.duration)
        wall_by_name[span.name] = wall_by_name.get(span.name, 0.0) + span.wall_duration
    if by_name:
        lines.append("")
        lines.append("-- stages --")
        lines.append(
            f"{'stage':<24} {'count':>7} {'total_t':>12} {'mean_t':>12} "
            f"{'max_t':>12} {'wall_s':>10}"
        )
        for name in sorted(by_name):
            durations = by_name[name]
            total = sum(durations)
            lines.append(
                f"{name:<24} {len(durations):>7} {total:>12.6f} "
                f"{total / len(durations):>12.6f} {max(durations):>12.6f} "
                f"{wall_by_name[name]:>10.4f}"
            )
        slowest = sorted(tracer.spans, key=lambda s: -s.duration)[:SLOWEST_SPANS]
        lines.append("")
        lines.append(f"-- {len(slowest)} slowest spans --")
        lines.append(f"{'span':<24} {'t0':>12} {'dur_t':>12}  attrs")
        for span in slowest:
            attrs = ", ".join(
                f"{k}={v}" for k, v in span.attrs.items() if k != "track"
            )
            lines.append(
                f"{span.name:<24} {span.t0:>12.6f} {span.duration:>12.6f}  {attrs}"
            )

    # Per-conversation rollup over request spans.
    by_conv: Dict[Any, List[float]] = {}
    for span in tracer.spans_named("request"):
        conv = span.attrs.get("conv_id")
        if conv is not None:
            by_conv.setdefault(conv, []).append(span.duration)
    if by_conv:
        lines.append("")
        lines.append("-- conversations (request spans) --")
        lines.append(f"{'conv_id':>8} {'turns':>6} {'total_t':>12} {'mean_t':>12}")
        for conv in sorted(by_conv, key=str):
            durations = by_conv[conv]
            total = sum(durations)
            lines.append(
                f"{str(conv):>8} {len(durations):>6} {total:>12.6f} "
                f"{total / len(durations):>12.6f}"
            )

    counters = tracer.counters
    if counters:
        lines.append("")
        lines.append("-- counters --")
        for name in sorted(counters):
            lines.append(f"{name:<40} {counters[name]:>16.1f}")

    by_gauge: Dict[str, List[float]] = {}
    for name, _t, _wall, value in tracer.gauge_samples:
        by_gauge.setdefault(name, []).append(value)
    if by_gauge:
        lines.append("")
        lines.append("-- gauges --")
        lines.append(
            f"{'gauge':<28} {'samples':>8} {'min':>12} {'mean':>12} {'max':>12}"
        )
        for name in sorted(by_gauge):
            values = by_gauge[name]
            lines.append(
                f"{name:<28} {len(values):>8} {min(values):>12.1f} "
                f"{sum(values) / len(values):>12.1f} {max(values):>12.1f}"
            )
    lines.append("")
    return "\n".join(lines)


def write_trace_artifacts(
    tracer: Tracer,
    outdir: Union[str, "os.PathLike[str]"],
    prefix: str = "trace",
) -> Dict[str, str]:
    """Write all three artifacts into ``outdir``; returns format->path.

    Spans still open (requests in flight at the simulation horizon) are
    closed at the last recorded time before exporting.
    """
    tracer.close_open()
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "jsonl": os.path.join(outdir, f"{prefix}.jsonl"),
        "chrome": os.path.join(outdir, f"{prefix}.chrome.json"),
        "report": os.path.join(outdir, f"{prefix}.txt"),
    }
    to_jsonl(tracer, paths["jsonl"])
    to_chrome_trace(tracer, paths["chrome"])
    with open(paths["report"], "w", encoding="utf-8") as fh:
        fh.write(text_report(tracer))
    return paths


# ---------------------------------------------------------------------------
# Prometheus text-format snapshot
# ---------------------------------------------------------------------------

_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
_PROM_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>[^\s]+)$"
)
_PROM_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"')


def _prom_name(name: str) -> str:
    return _PROM_NAME_RE.sub("_", name)


def _prom_value(value: float) -> str:
    # The exposition format's own spellings; ``int()`` cannot take them.
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".9g")


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_prom_name(k)}="{v}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


#: Metric-name prefix of every exported series.
PROM_NAMESPACE = "repro"


def prometheus_snapshot(
    collector: Any = None,
    hists: Optional[HistogramSet] = None,
    counters: Optional[Dict[str, float]] = None,
) -> str:
    """Render an SLO metrics snapshot in Prometheus text exposition format.

    Args:
        collector: a ``MetricsCollector`` with the SLO layer armed —
            contributes its histograms, flight-recorder event counters,
            request/failure totals and SLO violation counts.
        hists: a :class:`~repro.obs.histogram.HistogramSet` used instead
            of (or in addition to) ``collector``'s.
        counters: extra monotonic counters — pass the engine/PCIe
            **ledger totals** here so the snapshot is self-reconciling
            (histogram totals and ledger counters live in one artifact).

    The exposition is parseable by :func:`parse_prometheus` (used by the
    CI metrics-smoke job) and by any Prometheus scraper.
    """
    out: List[str] = []
    counter_lines: Dict[str, float] = dict(counters or {})
    gauge_lines: Dict[str, float] = {}

    hist_sets: List[HistogramSet] = []
    if hists is not None:
        hist_sets.append(hists)
    if collector is not None:
        coll_h = collector.hist
        if coll_h is not None and coll_h is not hists:
            hist_sets.append(coll_h)
        counter_lines["requests_completed"] = float(len(collector.records))
        counter_lines["requests_failed"] = float(len(collector.failures))
        flight = collector.flight
        if flight is not None:
            for key, value in sorted(flight.event_counts.items()):
                counter_lines[f"flight_events.{key}"] = float(value)
        for kind, value in sorted(collector.slo_violations.items()):
            counter_lines[f"slo_violations.{kind}"] = float(value)
        slo = collector.slo
        if slo is not None:
            if slo.ttft is not None:
                gauge_lines["slo_ttft_seconds"] = slo.ttft
            if slo.tbt is not None:
                gauge_lines["slo_tbt_seconds"] = slo.tbt

    seen_names: set = set()
    for hist_set in hist_sets:
        for hist in hist_set.all():
            metric = f"{PROM_NAMESPACE}_{_prom_name(hist.name)}"
            if metric not in seen_names:
                seen_names.add(metric)
                out.append(
                    f"# HELP {metric} repro histogram "
                    f"({hist.clock} clock, log-bucketed)"
                )
                out.append(f"# TYPE {metric} histogram")
            labels = dict(hist.labels)
            for upper, cumulative in hist.cumulative_buckets():
                bucket_labels = dict(labels)
                bucket_labels["le"] = format(upper, ".9g")
                out.append(
                    f"{metric}_bucket{_prom_labels(bucket_labels)} {cumulative}"
                )
            inf_labels = dict(labels)
            inf_labels["le"] = "+Inf"
            out.append(f"{metric}_bucket{_prom_labels(inf_labels)} {hist.count}")
            out.append(
                f"{metric}_sum{_prom_labels(labels)} {_prom_value(hist.sum)}"
            )
            out.append(f"{metric}_count{_prom_labels(labels)} {hist.count}")

    for name in sorted(counter_lines):
        metric = f"{PROM_NAMESPACE}_{_prom_name(name)}_total"
        out.append(f"# TYPE {metric} counter")
        out.append(f"{metric} {_prom_value(counter_lines[name])}")
    for name in sorted(gauge_lines):
        metric = f"{PROM_NAMESPACE}_{_prom_name(name)}"
        out.append(f"# TYPE {metric} gauge")
        out.append(f"{metric} {_prom_value(gauge_lines[name])}")
    return "\n".join(out) + "\n"


def ledger_counters(engine: Any) -> Dict[str, float]:
    """Ground-truth ledger totals from an engine's transfer/cache models.

    Duck-typed (no serving imports): reads whichever of ``pcie`` /
    ``manager`` / ``metrics.faults`` the engine exposes.  Pass
    the result as ``counters=`` to :func:`prometheus_snapshot` so one
    artifact carries both the histogram totals and the independent
    ledgers they must reconcile with (the ``ledger.*`` prefix keeps the
    two families apart in the exposition).
    """
    counters: Dict[str, float] = {}
    link = getattr(engine, "pcie", None)
    if link is not None:
        transfers = dict.fromkeys(link.bytes_moved, 0)
        for record in link.history:
            transfers[record.direction] += 1
        for direction, moved in link.bytes_moved.items():
            key = f"ledger.pcie.{direction.value}"
            counters[f"{key}_transfers"] = float(transfers[direction])
            counters[f"{key}_bytes"] = float(moved)
    manager = getattr(engine, "manager", None)
    if manager is not None:
        for key, value in getattr(manager, "stats", {}).items():
            counters[f"ledger.cache.{key}"] = float(value)
    metrics = getattr(engine, "metrics", None)
    if metrics is not None:
        for key, value in metrics.faults.as_dict().items():
            counters[f"ledger.faults.{key}"] = float(value)
    return counters


def parse_prometheus(
    text: str,
) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse Prometheus text exposition back into nested dicts.

    Returns ``{metric_name: {((label, value), ...): sample_value}}``; an
    unlabelled sample uses the empty tuple key.  Raises ``ValueError`` on
    a malformed sample line, making it usable as a validity check in CI.
    """
    out: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _PROM_LINE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed prometheus line: {line!r}")
        labels_src = match.group("labels") or ""
        labels = tuple(
            sorted(
                (m.group("key"), m.group("value"))
                for m in _PROM_LABEL_RE.finditer(labels_src)
            )
        )
        value_src = match.group("value")
        value = float("inf") if value_src == "+Inf" else float(value_src)
        out.setdefault(match.group("name"), {})[labels] = value
    return out


def tier_attribution_table(hists: Optional[HistogramSet], title: str = "") -> str:
    """Per-tier tail-latency attribution table over a histogram set.

    One row per ``(metric, labels)`` pair — swap-in/out split by tier,
    queue wait, TTFT/TBT, recompute — with exact counts and streaming
    p50/p90/p99/max.  Empty string when nothing was recorded (so report
    code can append it unconditionally).
    """
    if hists is None:
        return ""
    rows = [h for h in hists.all() if h.count > 0]
    if not rows:
        return ""
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"{'metric':<34} {'count':>8} {'p50':>11} {'p90':>11} "
        f"{'p99':>11} {'max':>11} {'sum':>12}"
    )
    for hist in rows:
        label = hist.name
        if hist.labels:
            label += (
                "{" + ",".join(f"{k}={v}" for k, v in sorted(hist.labels.items()))
                + "}"
            )
        lines.append(
            f"{label:<34} {hist.count:>8} {hist.p50:>11.6f} {hist.p90:>11.6f} "
            f"{hist.p99:>11.6f} {hist.max:>11.6f} {hist.sum:>12.6f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Periodic JSONL metrics sampler (sim-clock driven)
# ---------------------------------------------------------------------------


class MetricsSampler:
    """Samples engine/queue/cache state on the simulated clock.

    Attach before the run; every ``interval`` simulated seconds it appends
    one row (queue depths, completion counts, KV gauges, streaming tail
    percentiles) until ``horizon``.  Rows export as JSONL with a leading
    ``meta`` line.

    Args:
        interval: simulated seconds between samples.
        horizon: last simulated time to sample (required to stop the
            self-rescheduling event chain on loops run without ``until``).
    """

    def __init__(self, interval: float = 1.0, horizon: Optional[float] = None):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.horizon = horizon
        self.rows: List[Dict[str, Any]] = []
        self._loop = None
        self._engine = None

    def attach(self, loop: Any, engine: Any) -> "MetricsSampler":
        """Arm the sampler on ``loop``, observing ``engine``."""
        self._loop = loop
        self._engine = engine
        loop.schedule(loop.now, self._sample)
        return self

    def _sample(self) -> None:
        loop, engine = self._loop, self._engine
        now = loop.now
        row: Dict[str, Any] = {
            "type": "sample",
            "t": round(now, 6),
            "waiting": engine.num_waiting,
            "running": engine.num_running,
            "finished": len(engine.metrics),
            "failed": len(engine.metrics.failures),
            "iterations": engine.iterations,
        }
        manager = getattr(engine, "manager", None)
        if manager is not None:
            row["kv_gpu_resident_tokens"] = manager.gpu_resident_tokens
            row["kv_cpu_used_tokens"] = manager.cpu_used_tokens
        hist = engine.metrics.hist
        if hist is not None:
            for name in ("ttft_seconds", "tbt_seconds", "queue_wait_seconds"):
                found = hist.get(name)
                if found is not None and found.count:
                    row[f"{name}_p99"] = round(found.p99, 9)
                    row[f"{name}_count"] = found.count
        self.rows.append(row)
        next_t = now + self.interval
        if self.horizon is None or next_t <= self.horizon:
            loop.schedule(next_t, self._sample)

    def write_jsonl(self, path: str | os.PathLike[str]) -> int:
        """Write sampled rows as JSON Lines; returns the line count."""
        meta = {
            "type": "meta",
            "version": SCHEMA_VERSION,
            "format": "repro-metrics-jsonl",
            "interval": self.interval,
            "horizon": self.horizon,
        }
        return write_jsonl(path, [meta] + self.rows)
