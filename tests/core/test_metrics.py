"""Tests for metric dataclasses and aggregation."""

import math

import pytest

from repro.core.metrics import (
    METRIC_FIELDS, MetricStatistics, ShifterMetrics, aggregate,
)


def metrics(scale=1.0, functional=True):
    return ShifterMetrics(
        delay_rise=20e-12 * scale, delay_fall=30e-12 * scale,
        power_rise=2e-6 * scale, power_fall=1e-6 * scale,
        leakage_high=10e-9 * scale, leakage_low=4e-9 * scale,
        functional=functional)


class TestShifterMetrics:
    def test_as_dict_covers_all_fields(self):
        d = metrics().as_dict()
        assert set(d) == set(METRIC_FIELDS)

    def test_ratio_to(self):
        base = metrics()
        worse = metrics(scale=2.0)
        ratios = base.ratio_to(worse)
        for name in METRIC_FIELDS:
            assert ratios[name] == pytest.approx(2.0)

    def test_pretty_contains_labels(self):
        text = metrics().pretty("title")
        assert "title" in text
        assert "Delay Rise" in text
        assert "Leakage Current High" in text

    def test_frozen(self):
        with pytest.raises(AttributeError):
            metrics().delay_rise = 1.0


class TestAggregate:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_single_sample_zero_std(self):
        stats = aggregate([metrics()])
        assert stats.runs == 1
        assert stats.std.delay_rise == 0.0
        assert stats.mean.delay_rise == pytest.approx(20e-12)

    def test_mean_and_std(self):
        stats = aggregate([metrics(1.0), metrics(3.0)])
        assert stats.mean.delay_rise == pytest.approx(40e-12)
        # ddof=1 sample std of {20, 60} ps.
        assert stats.std.delay_rise == pytest.approx(
            (2 * (20e-12) ** 2) ** 0.5)

    def test_functional_yield(self):
        stats = aggregate([metrics(), metrics(functional=False),
                           metrics(), metrics()])
        assert stats.functional_yield == pytest.approx(0.75)

    def test_pretty_mentions_yield(self):
        stats = aggregate([metrics()])
        assert "yield=100.0%" in stats.pretty()

    def test_nan_samples_excluded_from_statistics(self):
        nan = float("nan")
        broken = ShifterMetrics(nan, nan, nan, nan, nan, nan,
                                functional=False)
        a, b = metrics(1.0), metrics(3.0)
        stats = aggregate([a, broken, b])
        clean = aggregate([a, b])
        for name in METRIC_FIELDS:
            # Bitwise: the NaN sample contributes nothing.
            assert getattr(stats.mean, name).hex() \
                == getattr(clean.mean, name).hex()
            assert getattr(stats.std, name).hex() \
                == getattr(clean.std, name).hex()
        assert stats.runs == 3
        assert stats.functional_yield == 2 / 3
        assert not stats.mean.functional

    def test_metric_without_finite_values_is_nan(self):
        nan = float("nan")
        broken = ShifterMetrics(nan, nan, nan, nan, nan, nan,
                                functional=False)
        stats = aggregate([broken, broken])
        assert math.isnan(stats.mean.delay_rise)
        assert math.isnan(stats.std.delay_rise)
        assert stats.functional_yield == 0.0
