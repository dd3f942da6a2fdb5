"""Tests for liberty-style characterization."""

import numpy as np
import pytest

from repro.core.libchar import (
    DEFAULT_LOADS, DEFAULT_SLEWS, CellCharacterization, NldmTable,
    characterize_cell, write_liberty,
)
from repro.errors import AnalysisError
from repro.floorplan import synthetic_characterization
from repro.pdk import Pdk

SLEWS = (20e-12, 150e-12)
LOADS = (0.5e-15, 4e-15)


@pytest.fixture(scope="module")
def inverter_cell():
    return characterize_cell("inverter", Pdk(), 1.2, 1.2,
                             slews=SLEWS, loads=LOADS)


class TestNldmTable:
    def _table(self):
        return NldmTable(np.asarray([1.0, 2.0]), np.asarray([10., 20.]),
                         np.asarray([[1.0, 2.0], [3.0, 4.0]]))

    def test_corner_lookup(self):
        table = self._table()
        assert table.lookup(1.0, 10.0) == 1.0
        assert table.lookup(2.0, 20.0) == 4.0

    def test_bilinear_center(self):
        assert self._table().lookup(1.5, 15.0) == pytest.approx(2.5)

    def test_clamping_outside(self):
        table = self._table()
        assert table.lookup(0.0, 0.0) == 1.0
        assert table.lookup(99.0, 99.0) == 4.0

    def test_max_value(self):
        assert self._table().max_value() == 4.0


def _numpy_lookup(table, slew, load):
    """Reference NLDM lookup: clamp, bisect and bilinear sum on the
    numpy arrays themselves."""
    slew = float(np.clip(slew, table.slews[0], table.slews[-1]))
    load = float(np.clip(load, table.loads[0], table.loads[-1]))
    i = int(np.clip(np.searchsorted(table.slews, slew) - 1, 0,
                    len(table.slews) - 2))
    j = int(np.clip(np.searchsorted(table.loads, load) - 1, 0,
                    len(table.loads) - 2))
    s0, s1 = table.slews[i], table.slews[i + 1]
    l0, l1 = table.loads[j], table.loads[j + 1]
    fs = (slew - s0) / (s1 - s0) if s1 > s0 else 0.0
    fl = (load - l0) / (l1 - l0) if l1 > l0 else 0.0
    v = table.values
    return float(
        v[i, j] * (1 - fs) * (1 - fl) + v[i + 1, j] * fs * (1 - fl)
        + v[i, j + 1] * (1 - fs) * fl + v[i + 1, j + 1] * fs * fl)


def _probe_points(table):
    """Grid points, interior points, and points clamped on each side
    of each axis."""
    slews = [float(s) for s in table.slews]
    loads = [float(c) for c in table.loads]

    def probes(axis):
        mids = [(a + b) / 2 for a, b in zip(axis, axis[1:])]
        thirds = [a + (b - a) / 3 for a, b in zip(axis, axis[1:])]
        return (axis + mids + thirds
                + [axis[0] / 2, axis[0] * 0.999, 0.0,
                   axis[-1] * 1.001, axis[-1] * 10.0])

    return [(s, c) for s in probes(slews) for c in probes(loads)]


class TestLookupBitwise:
    """``NldmTable.lookup`` runs on Python floats; it must give the
    numpy reference's bits everywhere."""

    def _tables(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(5e-12, 80e-12, size=(3, 3))
        tables = [NldmTable(np.asarray(DEFAULT_SLEWS),
                            np.asarray(DEFAULT_LOADS), values)]
        for kind, vddi, vddo in (("sstvs", 0.8, 1.2),
                                 ("inverter", 1.2, 1.2),
                                 ("cvs", 1.0, 0.9)):
            arc = synthetic_characterization(
                "cell", kind, vddi, vddo).arc
            tables += [arc.cell_rise, arc.cell_fall,
                       arc.rise_transition, arc.fall_transition]
        return tables

    def test_matches_numpy_reference(self):
        for table in self._tables():
            for slew, load in _probe_points(table):
                got = table.lookup(slew, load)
                want = _numpy_lookup(table, slew, load)
                assert type(got) is float
                assert got.hex() == want.hex(), (slew, load)


class TestCharacterizeInverter:
    def test_table_shapes(self, inverter_cell):
        arc = inverter_cell.arc
        assert arc.cell_rise.values.shape == (2, 2)
        assert np.all(np.isfinite(arc.cell_rise.values))
        assert np.all(np.isfinite(arc.fall_transition.values))

    def test_delay_grows_with_load(self, inverter_cell):
        values = inverter_cell.arc.cell_rise.values
        assert np.all(values[:, 1] > values[:, 0])

    def test_delay_grows_with_slew(self, inverter_cell):
        values = inverter_cell.arc.cell_rise.values
        assert np.all(values[1, :] > values[0, :])

    def test_transition_grows_with_load(self, inverter_cell):
        values = inverter_cell.arc.rise_transition.values
        assert np.all(values[:, 1] > values[:, 0])

    def test_input_capacitance_positive(self, inverter_cell):
        assert 1e-16 < inverter_cell.input_capacitance < 1e-13

    def test_inverting_flag(self, inverter_cell):
        assert inverter_cell.arc.inverting

    def test_needs_two_points_per_axis(self):
        with pytest.raises(AnalysisError):
            characterize_cell("inverter", Pdk(), 1.2, 1.2,
                              slews=(20e-12,), loads=LOADS)


class TestCharacterizeShifter:
    def test_sstvs_tables_finite(self):
        cell = characterize_cell("sstvs", Pdk(), 0.8, 1.2,
                                 slews=SLEWS, loads=LOADS)
        assert np.all(np.isfinite(cell.arc.cell_rise.values))
        assert np.all(np.isfinite(cell.arc.cell_fall.values))
        # Level shifting is slower than plain inversion.
        assert cell.arc.cell_rise.values.min() > 20e-12


class TestWriteLiberty:
    def test_structure(self, inverter_cell):
        text = write_liberty([inverter_cell])
        assert text.startswith("library (repro_lvl)")
        assert "lu_table_template" in text
        assert "cell (" in text
        assert "timing_sense : negative_unate" in text
        assert text.count("values (") == 4

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            write_liberty([])

    def test_multiple_cells(self, inverter_cell):
        text = write_liberty([inverter_cell, inverter_cell])
        assert text.count("cell (") == 2
