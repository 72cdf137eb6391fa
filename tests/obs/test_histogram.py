"""Unit tests for the streaming log-bucketed histograms.

The contract the SLO layer relies on: exact count/sum/min/max under any
recording order, percentile bounds within one bucket width, loss-free
merging, and a set that stays armed when empty.
"""

import json
import math

import numpy as np
import pytest

from repro.obs.histogram import (
    DEFAULT_BASE,
    DEFAULT_MIN_VALUE,
    Histogram,
    HistogramSet,
)
from repro.serving.metrics import MetricsCollector


class TestHistogram:
    def test_exact_scalars(self):
        hist = Histogram("latency")
        values = [0.001, 0.5, 0.002, 3.25, 0.001]
        for value in values:
            hist.record(value)
        assert hist.count == len(values)
        assert hist.sum == pytest.approx(sum(values))
        assert hist.min == min(values)
        assert hist.max == max(values)
        assert hist.mean == pytest.approx(sum(values) / len(values))
        assert len(hist) == len(values)

    def test_empty_histogram_reports_zeros(self):
        hist = Histogram("empty")
        assert hist.count == 0
        assert hist.sum == 0.0
        assert hist.min == 0.0 and hist.max == 0.0
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0
        assert hist.buckets() == []
        assert hist.cumulative_buckets() == []

    def test_underflow_bucket(self):
        hist = Histogram("tiny")
        hist.record(0.0)
        hist.record(-1.0)  # defensive clamp, never raises
        hist.record(1e-9)
        assert hist.count == 3
        buckets = hist.buckets()
        assert len(buckets) == 1
        assert buckets[0] == (DEFAULT_MIN_VALUE, 3)

    def test_bucket_bounds_contain_samples(self):
        hist = Histogram("bounds")
        rng = np.random.default_rng(0)
        for value in rng.lognormal(mean=-3.0, sigma=2.0, size=500):
            hist.record(float(value))
        running = 0
        prev_upper = 0.0
        for upper, count in hist.buckets():
            assert upper > prev_upper
            assert count > 0
            prev_upper = upper
            running += count
        assert running == hist.count
        # Cumulative view agrees with the per-bucket view.
        assert hist.cumulative_buckets()[-1] == (prev_upper, hist.count)

    def test_percentile_within_one_bucket_of_truth(self):
        rng = np.random.default_rng(1)
        values = [float(v) for v in rng.lognormal(-2.0, 1.5, size=2000)]
        hist = Histogram("p")
        for value in values:
            hist.record(value)
        for q in (50, 90, 99):
            true = float(np.percentile(values, q, method="inverted_cdf"))
            reported = hist.percentile(q)
            # Upper bound, at most one bucket width above the truth.
            assert true <= reported * (1 + 1e-12)
            assert reported <= true * DEFAULT_BASE * (1 + 1e-12)

    def test_percentile_100_is_exact_max(self):
        hist = Histogram("max")
        for value in (0.1, 0.7, 0.03):
            hist.record(value)
        assert hist.percentile(100) == 0.7
        assert hist.p99 <= 0.7

    def test_percentile_validation(self):
        hist = Histogram("q")
        with pytest.raises(ValueError):
            hist.percentile(-1)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Histogram("x", clock="cpu")

    def test_exact_boundary_lands_in_lower_bucket(self):
        hist = Histogram("edge")
        uppers = [hist.bucket_upper(i) for i in (1, 4, 40)]
        for upper in uppers:
            hist.record(upper)  # exactly the upper bound of its bucket
        assert hist.buckets() == [(upper, 1) for upper in uppers]

    def test_as_dict_json_serializable(self):
        hist = Histogram("h", labels={"tier": "cpu"}, clock="wall")
        hist.record(0.01)
        hist.record(0.2)
        payload = hist.as_dict()
        text = json.dumps(payload)
        back = json.loads(text)
        assert back["name"] == "h"
        assert back["labels"] == {"tier": "cpu"}
        assert back["clock"] == "wall"
        assert back["count"] == 2
        assert back["max"] == 0.2


class TestHistogramSet:
    def test_hist_is_get_or_create(self):
        hists = HistogramSet()
        a = hists.hist("ttft_seconds")
        b = hists.hist("ttft_seconds")
        assert a is b
        assert len(hists) == 1

    def test_labels_key_distinct_histograms(self):
        hists = HistogramSet()
        cpu = hists.hist("swap_in_seconds", tier="cpu")
        disk = hists.hist("swap_in_seconds", tier="disk")
        assert cpu is not disk
        cpu.record(0.1)
        assert hists.get("swap_in_seconds", tier="cpu") is cpu
        assert hists.get("swap_in_seconds", tier="gpu") is None
        assert hists.get("never_recorded") is None

    def test_named_and_totals(self):
        """Label variants of one name keep separate, exact totals."""
        hists = HistogramSet()
        cpu = hists.hist("swap_in_seconds", tier="cpu")
        cpu.record(0.1)
        cpu.record(0.2)
        hists.hist("swap_in_seconds", tier="disk").record(0.4)
        hists.hist("ttft_seconds").record(0.05)
        totals = {
            (h.name, h.labels.get("tier")): (h.count, h.sum) for h in hists
        }
        assert totals == {
            ("swap_in_seconds", "cpu"): (2, pytest.approx(0.3)),
            ("swap_in_seconds", "disk"): (1, 0.4),
            ("ttft_seconds", None): (1, 0.05),
        }

    def test_all_is_sorted_and_stable(self):
        hists = HistogramSet()
        hists.hist("b")
        hists.hist("a", tier="z")
        hists.hist("a", tier="c")
        names = [(h.name, h.labels.get("tier")) for h in hists.all()]
        assert names == [("a", "c"), ("a", "z"), ("b", None)]
        assert list(hists) == hists.all()

    def test_enable_slo_keeps_an_empty_set(self):
        """An empty set is falsy (``__len__``) yet armed: re-arming a
        collector keeps it instead of replacing it."""
        hists = HistogramSet()
        assert not hists
        collector = MetricsCollector().enable_slo(hist=hists)
        assert collector.enable_slo().hist is hists


class TestNullPath:
    def test_recording_set_reports_enabled(self):
        """Off is ``None``; arming installs the one recording set."""
        collector = MetricsCollector()
        assert collector.hist is None
        hists = collector.enable_slo().hist
        assert isinstance(hists, HistogramSet)
        hists.hist("x").record(1.0)
        assert hists.get("x").count == 1
