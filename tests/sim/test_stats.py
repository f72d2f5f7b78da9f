"""Unit tests for measurement utilities."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import CounterSet, LatencyStats, hit_rate, relative_change
from repro.sim.stats import StreamingHistogram


class TestLatencyStats:
    def test_empty_is_nan(self):
        stats = LatencyStats()
        assert math.isnan(stats.mean())
        assert math.isnan(stats.p99())
        assert stats.count == 0

    def test_percentiles_ordered(self):
        stats = LatencyStats()
        stats.extend(float(i) for i in range(1, 101))
        assert stats.median() == pytest.approx(50.5)
        assert stats.p99() >= stats.median() >= stats.percentile(1)

    def test_mean(self):
        stats = LatencyStats()
        stats.extend([1.0, 2.0, 3.0])
        assert stats.mean() == pytest.approx(2.0)

    def test_summary_and_reset(self):
        stats = LatencyStats()
        stats.record(5.0)
        summary = stats.summary()
        assert summary["count"] == 1
        assert summary["p50"] == 5.0
        stats.reset()
        assert stats.count == 0

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=200))
    def test_percentile_bounds(self, samples):
        stats = LatencyStats()
        stats.extend(samples)
        assert min(samples) <= stats.percentile(50) <= max(samples)
        assert stats.percentile(0) == pytest.approx(min(samples))
        assert stats.percentile(100) == pytest.approx(max(samples))


class TestLatencyStatsSpill:
    """Exact-mode -> streaming-histogram transition at ``EXACT_LIMIT``."""

    def test_single_sample(self):
        stats = LatencyStats()
        stats.record(42.0)
        assert stats.exact
        assert stats.count == 1
        assert stats.mean() == 42.0
        assert stats.percentile(0) == stats.percentile(100) == 42.0

    def test_exact_below_limit(self, monkeypatch):
        monkeypatch.setattr(LatencyStats, "EXACT_LIMIT", 100)
        stats = LatencyStats()
        stats.extend(float(i) for i in range(99))
        assert stats.exact
        assert len(stats) == 99

    def test_spill_flips_exact_and_keeps_stats(self, monkeypatch):
        monkeypatch.setattr(LatencyStats, "EXACT_LIMIT", 100)
        stats = LatencyStats()
        samples = [float(i) for i in range(1, 501)]
        stats.extend(samples)
        assert not stats.exact
        assert stats.count == 500
        assert stats.mean() == pytest.approx(250.5, rel=0.001)
        # streaming percentiles stay within the bucket-width error bound
        assert stats.median() == pytest.approx(250.5, rel=0.03)
        assert stats.p99() == pytest.approx(495.05, rel=0.03)

    def test_record_after_spill_goes_to_histogram(self, monkeypatch):
        monkeypatch.setattr(LatencyStats, "EXACT_LIMIT", 2)
        stats = LatencyStats()
        stats.record(1.0)
        stats.record(2.0)
        assert not stats.exact
        stats.record(3.0)
        assert stats.count == 3
        assert stats.summary()["count"] == 3.0

    def test_reset_restores_exact_mode(self, monkeypatch):
        monkeypatch.setattr(LatencyStats, "EXACT_LIMIT", 2)
        stats = LatencyStats()
        stats.extend([1.0, 2.0, 3.0])
        assert not stats.exact
        stats.reset()
        assert stats.exact and stats.count == 0

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6),
                    min_size=20, max_size=200))
    def test_spilled_percentiles_near_exact(self, samples):
        import numpy as np

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LatencyStats, "EXACT_LIMIT", 10)
            spilled = LatencyStats()
            spilled.extend(samples)
        assert not spilled.exact
        # the histogram estimates the lower-rank sample to within one
        # log-bucket's relative width (it does not interpolate between ranks)
        for p in (50, 90, 99):
            reference = float(np.percentile(samples, p, method="lower"))
            assert spilled.percentile(p) == pytest.approx(
                reference, rel=0.05, abs=0.02
            )
            assert min(samples) <= spilled.percentile(p) <= max(samples)


class TestStreamingHistogram:
    def test_empty_is_nan(self):
        hist = StreamingHistogram()
        assert math.isnan(hist.mean())
        assert math.isnan(hist.min) and math.isnan(hist.max)
        assert math.isnan(hist.percentile(50))

    def test_relative_error_bound(self):
        hist = StreamingHistogram(growth=1.02)
        for v in range(1, 10_001):
            hist.record(float(v))
        assert hist.percentile(50) == pytest.approx(5000.0, rel=0.02)
        assert hist.percentile(99) == pytest.approx(9900.0, rel=0.02)
        assert hist.min == 1.0 and hist.max == 10_000.0

    def test_underflow_and_overflow_clamped(self):
        hist = StreamingHistogram(lo=1.0, hi=100.0)
        hist.record(0.001)   # below lo -> underflow bucket
        hist.record(1e12)    # above hi -> overflow bucket
        assert hist.count == 2
        # exact extremes are tracked on the side...
        assert hist.min == 0.001 and hist.max == 1e12
        # ...while percentile estimates collapse to the bucket range edges
        assert hist.percentile(0) == hist.lo
        assert hist.percentile(100) == pytest.approx(100.0, rel=0.1)

    def test_merge(self):
        a = StreamingHistogram()
        b = StreamingHistogram()
        a.extend([1.0, 2.0, 3.0])
        b.extend([100.0, 200.0])
        a.merge(b)
        assert a.count == 5
        assert a.total == pytest.approx(306.0)
        assert a.max == 200.0

    def test_merge_geometry_mismatch_raises(self):
        a = StreamingHistogram(growth=1.02)
        b = StreamingHistogram(growth=1.05)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_reset(self):
        hist = StreamingHistogram()
        hist.extend([5.0, 6.0])
        hist.reset()
        assert hist.count == 0 and math.isnan(hist.mean())

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            StreamingHistogram(lo=0.0)
        with pytest.raises(ValueError):
            StreamingHistogram(lo=10.0, hi=1.0)
        with pytest.raises(ValueError):
            StreamingHistogram(growth=1.0)


class TestCounterSet:
    def test_add_and_get(self):
        counters = CounterSet()
        counters.add("reads")
        counters.add("reads", 4)
        assert counters.get("reads") == 5
        assert counters.get("absent") == 0

    def test_as_dict_and_reset(self):
        counters = CounterSet()
        counters.add("x", 2)
        assert counters.as_dict() == {"x": 2}
        counters.reset()
        assert counters.as_dict() == {}


def test_hit_rate():
    assert hit_rate(0, 0) == 0.0
    assert hit_rate(3, 1) == pytest.approx(0.75)


def test_relative_change():
    assert relative_change([]) == 0.0
    assert relative_change([0.0, 0.0]) == 0.0
    assert relative_change([0.5, 1.0]) == pytest.approx(0.5)
    assert relative_change([0.8]) == 0.0
