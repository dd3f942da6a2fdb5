"""Tests for the delay-surface sweep (coarse grids for speed)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import (
    SweepGrid, VDD_MAX, VDD_MIN, render_surface_ascii,
    sweep_delay_surface,
)
from repro.analysis.sweep import DelaySurface, sweep_spec
from repro.errors import AnalysisError
from repro.runtime.experiment import run_experiment


class TestSweepGrid:
    def test_default_range(self):
        grid = SweepGrid()
        assert grid.vddi_values[0] == pytest.approx(VDD_MIN)
        assert grid.vddi_values[-1] == pytest.approx(VDD_MAX)

    def test_with_step(self):
        grid = SweepGrid.with_step(0.3)
        np.testing.assert_allclose(grid.vddi_values, [0.8, 1.1, 1.4])

    def test_bad_step(self):
        with pytest.raises(AnalysisError):
            SweepGrid.with_step(0.0)


class TestSweepSurface:
    @pytest.fixture(scope="class")
    def surface(self):
        return sweep_delay_surface("sstvs", SweepGrid.with_step(0.3))

    def test_shape(self, surface):
        assert surface.rise.shape == (3, 3)
        assert surface.fall.shape == (3, 3)

    def test_all_functional_on_paper_grid(self, surface):
        assert surface.functional_fraction == 1.0

    def test_delays_finite_where_functional(self, surface):
        assert np.all(np.isfinite(surface.rise[surface.functional]))
        assert np.all(np.isfinite(surface.fall[surface.functional]))

    def test_smoothness_check(self, surface):
        assert surface.is_smooth(factor=6.0)

    def test_worst_delays(self, surface):
        assert surface.worst_rise() >= np.nanmax(surface.rise) * 0.999
        assert surface.worst_fall() > 0

    def test_progress_callback(self):
        calls = []
        sweep_delay_surface("inverter", SweepGrid.with_step(0.6),
                            progress=lambda i, j, q: calls.append((i, j)))
        assert len(calls) == 4

    def test_ascii_render(self, surface):
        text = render_surface_ascii(surface, "rise")
        assert "VDDI\\VDDO" in text
        assert len(text.splitlines()) == 4


def _row_bits(resultset) -> list:
    """Every sweep row as exact bits: index, status, delays, verdict."""
    return [(row.index, row.status, float.hex(row.value.delay_rise),
             float.hex(row.value.delay_fall), row.value.functional)
            for row in resultset.rows]


class TestSweepBackends:
    @pytest.fixture(scope="class")
    def serial_rows(self):
        spec = sweep_spec("sstvs", SweepGrid.with_step(0.3))
        return _row_bits(run_experiment(replace(spec, backend="serial")))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_default_rows_bitwise_equal_serial(self, serial_rows,
                                               workers):
        # The default sweep runs batched lanes (sharded when workers
        # > 1); every row must be the per-point kernel's, bit for bit.
        spec = sweep_spec("sstvs", SweepGrid.with_step(0.3),
                          workers=workers)
        rows = _row_bits(run_experiment(spec))
        assert len(rows) == 9
        assert rows == serial_rows


class TestSurfaceHelpers:
    def _surface(self, rise):
        values = np.asarray([0.8, 1.1])
        return DelaySurface(values, values, rise, rise.copy(),
                            np.isfinite(rise))

    def test_functional_fraction(self):
        rise = np.asarray([[1e-12, np.nan], [1e-12, 1e-12]])
        assert self._surface(rise).functional_fraction == 0.75

    def test_smoothness_violation_detected(self):
        rise = np.asarray([[1e-12, 1e-12], [1e-12, 50e-12]])
        assert not self._surface(rise).is_smooth(factor=4.0)
