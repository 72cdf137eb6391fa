"""Unit tests for the streaming log-bucketed histograms.

The contract the SLO layer relies on: exact count/sum/min/max under any
recording order, percentile bounds within one bucket width, loss-free
merging, and an allocation-free disabled path.
"""

import json
import math

import numpy as np
import pytest

from repro.obs.histogram import (
    DEFAULT_BASE,
    Histogram,
    HistogramSet,
    NULL_HISTOGRAM,
    NULL_HISTOGRAMS,
    NullHistogram,
    NullHistogramSet,
)


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
        hist = Histogram("tiny", min_value=1e-6)
        hist.record(0.0)
        hist.record(-1.0)  # defensive clamp, never raises
        hist.record(1e-9)
        assert hist.count == 3
        buckets = hist.buckets()
        assert len(buckets) == 1
        assert buckets[0] == (1e-6, 3)

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
        hist.record_many(values)
        for q in (50, 90, 99):
            true = float(np.percentile(values, q, method="inverted_cdf"))
            reported = hist.percentile(q)
            # Upper bound, at most one bucket width above the truth.
            assert true <= reported * (1 + 1e-12)
            assert reported <= true * DEFAULT_BASE * (1 + 1e-12)

    def test_percentile_100_is_exact_max(self):
        hist = Histogram("max")
        hist.record_many([0.1, 0.7, 0.03])
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
            Histogram("x", min_value=0.0)
        with pytest.raises(ValueError):
            Histogram("x", base=1.0)
        with pytest.raises(ValueError):
            Histogram("x", clock="cpu")

    def test_exact_boundary_lands_in_lower_bucket(self):
        hist = Histogram("edge", min_value=1.0, base=2.0)
        hist.record(2.0)  # exactly the upper bound of bucket 1
        assert hist.buckets() == [(2.0, 1)]

    def test_as_dict_json_serializable(self):
        hist = Histogram("h", labels={"tier": "cpu"}, clock="wall")
        hist.record_many([0.01, 0.2])
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
        hists = HistogramSet()
        hists.hist("swap_in_seconds", tier="cpu").record_many([0.1, 0.2])
        hists.hist("swap_in_seconds", tier="disk").record(0.4)
        hists.hist("ttft_seconds").record(0.05)
        assert len(hists.named("swap_in_seconds")) == 2
        assert hists.total_count("swap_in_seconds") == 3
        assert hists.total_sum("swap_in_seconds") == pytest.approx(0.7)
        assert hists.total_count("missing") == 0
        assert hists.total_sum("missing") == 0.0

    def test_all_is_sorted_and_stable(self):
        hists = HistogramSet()
        hists.hist("b")
        hists.hist("a", tier="z")
        hists.hist("a", tier="c")
        names = [(h.name, h.labels.get("tier")) for h in hists.all()]
        assert names == [("a", "c"), ("a", "z"), ("b", None)]
        assert list(hists) == hists.all()

    def test_set_is_truthy_even_when_empty(self):
        assert bool(HistogramSet())


class TestNullPath:
    def test_null_set_is_disabled_and_freely_callable(self):
        assert NULL_HISTOGRAMS.enabled is False
        assert isinstance(NULL_HISTOGRAMS, NullHistogramSet)
        handle = NULL_HISTOGRAMS.hist("anything", tier="cpu")
        assert handle is NULL_HISTOGRAM
        handle.record(1.0)
        handle.record_many([1.0, 2.0])
        assert handle.count == 0 and handle.sum == 0.0
        assert handle.percentile(99) == 0.0
        assert NULL_HISTOGRAMS.get("anything") is None
        assert NULL_HISTOGRAMS.all() == []
        assert NULL_HISTOGRAMS.total_count("anything") == 0
        assert len(NULL_HISTOGRAMS) == 0
        assert list(NULL_HISTOGRAMS) == []

    def test_null_histogram_shares_read_api(self):
        null = NullHistogram()
        assert null.buckets() == []
        assert null.cumulative_buckets() == []
        assert null.p50 == null.p90 == null.p99 == 0.0
        assert len(null) == 0
        json.dumps(null.as_dict())

    def test_recording_set_reports_enabled(self):
        assert HistogramSet().enabled is True
        assert Histogram("x") is not None  # smoke: importable surface
        assert math.isfinite(DEFAULT_BASE)
