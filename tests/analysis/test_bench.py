"""Backend-identity oracles and the telemetry-overhead guard
(``pytest -m bench``).

Campaign timing lives in ``benchmarks/perf``; what stays here is what a
CLI run cannot see: every Monte Carlo backend must reproduce the serial
campaign bit for bit on a real cell, with the solve counters its
workers ship home, and an ambient NullTracer must be nearly free on the
solver hot path.
"""

import pytest

from repro.analysis import MonteCarloConfig, run_monte_carlo
from repro.analysis.bench import (
    TRACER_OVERHEAD_TOLERANCE, bench_tracer_overhead, machine_calibration,
)
from repro.core import StimulusPlan
from repro.core.metrics import METRIC_FIELDS
from repro.runtime import telemetry
from repro.spice.newton import reset_solve_stats, solve_stats

pytestmark = pytest.mark.bench

BACKENDS = {
    "serial": {"backend": "serial"},
    # The default: lanes, split evenly over the two workers.
    "pool": {"workers": 2},
    # Traced (see TRACED), so one sample per pool task.
    "pool_per_point": {"workers": 2},
    "batched": {"backend": "batched", "batch_width": 2},
    "sharded_batched": {"backend": "batched", "workers": 2,
                        "batch_width": 2},
}

#: Campaigns run under the campaign trace mode, which keeps them on the
#: per-point path.
TRACED = {"pool_per_point"}


def _bits(result):
    """Samples as exact bit patterns: NaN-safe, unlike ``==``."""
    return [(s.functional,
             *(float.hex(float(getattr(s, f))) for f in METRIC_FIELDS))
            for s in result.samples]


@pytest.fixture(scope="module")
def suite():
    """One real sstvs campaign per backend, with its counter delta."""
    plan = StimulusPlan(settle=3e-9, hold=2e-9, short=0.8e-9)
    campaigns = {}
    for name, knobs in BACKENDS.items():
        reset_solve_stats()
        config = MonteCarloConfig(runs=4, seed=99, plan=plan, **knobs)
        telemetry.set_campaign_trace_mode(
            "collect" if name in TRACED else None)
        try:
            result = run_monte_carlo("sstvs", 0.8, 1.2, config)
        finally:
            telemetry.set_campaign_trace_mode(None)
        campaigns[name] = (result, solve_stats())
    return campaigns


def _assert_identical_to_serial(suite, name):
    serial, _ = suite["serial"]
    other, _ = suite[name]
    assert _bits(other) == _bits(serial)
    assert other.quarantined == serial.quarantined


def test_suite_record_shape(suite):
    for result, stats in suite.values():
        assert len(result.samples) == 4
        assert stats["solves"] > 0
    # Workers measure their counter deltas in-process and ship them
    # home, so a sharded campaign reports exactly its in-process twin's
    # work (all three lane campaigns run two lane groups of two; the
    # per-point pool runs serial's points). Batched and serial count
    # lane work differently, so only same-kernel campaigns are
    # compared.
    assert suite["pool_per_point"][1] == suite["serial"][1]
    assert suite["pool"][1] == suite["batched"][1]
    assert suite["sharded_batched"][1] == suite["batched"][1]
    # Constant-work machine price, stamped into recorded baselines.
    assert machine_calibration(repeats=1)["lapack_fixed_work_s"] > 0


def test_parallel_identical_to_serial(suite):
    _assert_identical_to_serial(suite, "pool")


def test_parallel_per_point_identical_to_serial(suite):
    _assert_identical_to_serial(suite, "pool_per_point")


def test_batched_identical_to_serial(suite):
    _assert_identical_to_serial(suite, "batched")


def test_sharded_batched_identical_to_serial(suite):
    _assert_identical_to_serial(suite, "sharded_batched")


class TestTracerOverhead:
    def test_null_tracer_within_bound(self):
        record = bench_tracer_overhead(solves=120, repeats=3)
        assert record["disabled_solve_s"] > 0
        # The hard acceptance bound: an ambient NullTracer may cost at
        # most 2% over the disabled hot path. The median-of-interleaved
        # estimator is noise-robust, but grant the same margin again
        # for CI machines under load.
        assert record["null_overhead"] <= 2 * TRACER_OVERHEAD_TOLERANCE
