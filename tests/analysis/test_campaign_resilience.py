"""Quarantine behaviour of the sweep, corner, and functional drivers."""

from dataclasses import replace

import numpy as np
import pytest

import repro.analysis.corners as corners_module
import repro.analysis.functional as functional_module
import repro.analysis.sweep as sweep_module
from repro.analysis import (
    SweepGrid, pvt_report, sweep_delay_surface, validate_functionality,
)
from repro.analysis.sweep import surface_from_resultset, sweep_spec
from repro.core import QuickDelays
from repro.errors import ConvergenceError
from repro.runtime.experiment import run_experiment

pytestmark = pytest.mark.resilience

GRID = SweepGrid(vddi_values=np.array([0.8, 1.2]),
                 vddo_values=np.array([0.8, 1.2]))


def exploding_quick_delays(target_calls):
    """quick_delays stand-in that escapes the ladder on chosen calls."""
    state = {"n": 0}

    def fake(pdk, kind, vddi, vddo, sizing=None, **kwargs):
        call = state["n"]
        state["n"] += 1
        if call in target_calls:
            raise ConvergenceError("synthetic solver escape")
        return QuickDelays(1e-9, 1e-9, True)

    return fake


def refused_lane_group(lanes):
    """A ``quick_delays_batch`` that raises as a whole: the engine
    evicts the chunk to the per-point ``quick_delays``."""
    raise RuntimeError("lane group refused")


def batched(fake):
    """``quick_delays_batch`` stand-in running ``fake`` on every lane."""
    def fake_batch(lanes):
        return [fake(pdk, kind, vddi, vddo, sizing=sizing)
                for pdk, kind, vddi, vddo, _, _, sizing in lanes]

    return fake_batch


class TestSweepQuarantine:
    def test_escaped_point_is_quarantined(self, monkeypatch, caplog):
        # The default sweep runs lanes; a refused lane group is evicted
        # to the per-point path, where the third cell escapes.
        monkeypatch.setattr(sweep_module, "quick_delays",
                            exploding_quick_delays({2}))
        monkeypatch.setattr(sweep_module, "quick_delays_batch",
                            refused_lane_group)
        surface = sweep_delay_surface("sstvs", GRID)
        assert surface.quarantined == [(1, 0)]
        assert not surface.functional[1, 0]
        assert np.isnan(surface.rise[1, 0])
        # The remaining three points are untouched.
        assert surface.functional.sum() == 3
        assert "1 quarantined" in surface.failure_summary()
        assert "chunk evicted" in caplog.text

    def test_escaped_point_is_quarantined_serial(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "quick_delays",
                            exploding_quick_delays({2}))
        spec = replace(sweep_spec("sstvs", GRID), backend="serial")
        surface = surface_from_resultset(run_experiment(spec), GRID)
        assert surface.quarantined == [(1, 0)]
        assert not surface.functional[1, 0]
        assert np.isnan(surface.rise[1, 0])
        assert surface.functional.sum() == 3
        assert "1 quarantined" in surface.failure_summary()

    def test_progress_errors_isolated(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "quick_delays_batch",
                            batched(exploding_quick_delays(set())))
        calls = []

        def bad_progress(i, j, q):
            calls.append((i, j))
            raise ValueError("observer bug")

        with pytest.warns(RuntimeWarning, match="progress callback"):
            surface = sweep_delay_surface("sstvs", GRID,
                                          progress=bad_progress)
        assert calls == [(0, 0)]
        assert surface.functional.all()


class TestPvtQuarantine:
    def test_escaped_corner_kept_as_nonfunctional_point(self,
                                                        monkeypatch):
        state = {"n": 0}

        def fake(pdk, kind, vddi, vddo, plan=None, sizing=None):
            call = state["n"]
            state["n"] += 1
            if call == 1:
                raise ConvergenceError("synthetic solver escape")
            from repro.core import ShifterMetrics
            return ShifterMetrics(1e-9, 1e-9, 1e-6, 1e-6, 1e-9, 1e-9)

        monkeypatch.setattr(corners_module, "characterize", fake)
        report = pvt_report("sstvs", 0.8, 1.2, corners=("tt", "ss"),
                            temperatures=(27.0,))
        assert len(report.points) == 2  # every PVT point still present
        assert report.quarantined == [("tt", 27.0)] or \
            report.quarantined == [("ss", 27.0)]
        assert not report.all_functional
        assert "quarantined" in report.pretty()


class TestFunctionalQuarantine:
    def test_escaped_pair_counts_as_failure(self, monkeypatch, caplog):
        # Functional lanes run on the sweep's batch measure; a refused
        # lane group is evicted to the per-point path.
        monkeypatch.setattr(functional_module, "quick_delays",
                            exploding_quick_delays({0}))
        monkeypatch.setattr(sweep_module, "quick_delays_batch",
                            refused_lane_group)
        report = validate_functionality("sstvs", GRID)
        assert report.total == 4
        assert report.passed == 3
        assert len(report.failures) == 1
        assert len(report.solver_escapes) == 1
        assert "quarantined after solver escape" in report.summary()
        assert "chunk evicted" in caplog.text

    def test_escaped_pair_counts_as_failure_serial(self, monkeypatch):
        monkeypatch.setattr(functional_module, "quick_delays",
                            exploding_quick_delays({0}))
        report = validate_functionality("sstvs", GRID, backend="serial")
        assert report.total == 4
        assert report.passed == 3
        assert len(report.failures) == 1
        assert len(report.solver_escapes) == 1
        assert "quarantined after solver escape" in report.summary()
