"""Liberty-style (NLDM) cell characterization.

Standard-cell flows describe a cell's timing as tables of delay and
output transition over (input transition, output load). This module
generates those tables by direct SPICE-level simulation — the DUT input
is driven by a PWL ramp of controlled slew (not through the paper's
driver inverter, which fixes the slew), and each (slew, load) grid
point gets one rising and one falling measurement.

The tables feed :mod:`repro.sta`, the small static-timing engine used
by the SoC-level studies, and can be exported as a ``.lib``-like text
block for inspection.

Level-shifter caveat: a shifter's input and output swings differ, so
the "input transition" axis is defined on the input domain swing and
thresholds scale per-domain (30/70 % for transition, 50 % for delay) —
the same convention multi-voltage liberty files use.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cells.registry import (
    add_select_sources, build_dut, dut_is_inverting,
)
from repro.errors import AnalysisError, MeasurementError
from repro.spice import Circuit, Transient
from repro.spice.devices import Capacitor, Pwl, VoltageSource
from repro.spice.transient import TransientOptions
from repro.spice.waveform import FALL, RISE, propagation_delay

#: Default characterization axes.
DEFAULT_SLEWS = (20e-12, 80e-12, 200e-12)
DEFAULT_LOADS = (0.5e-15, 2e-15, 8e-15)

#: Transition-time measurement thresholds (fraction of the rail).
TRANSITION_LOW = 0.3
TRANSITION_HIGH = 0.7


@dataclass
class NldmTable:
    """One 2-D lookup table: rows = input slew, cols = output load."""

    slews: np.ndarray
    loads: np.ndarray
    values: np.ndarray   #: shape (len(slews), len(loads))
    #: Python-float copies of (slews, loads, values), made on first lookup.
    _grid: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def lookup(self, slew: float, load: float) -> float:
        """Bilinear interpolation with edge clamping (liberty style).

        Runs on Python-float copies of the table, so a lookup pays no
        numpy scalar overhead; clamp, bisect and the bilinear sum are
        the same IEEE operations in the same order as on the arrays.
        """
        if self._grid is None:
            self._grid = tuple(np.asarray(array).tolist() for array in
                               (self.slews, self.loads, self.values))
        slews, loads, v = self._grid
        slew, i = _locate(slews, float(slew))
        load, j = _locate(loads, float(load))
        s0, s1 = slews[i], slews[i + 1]
        l0, l1 = loads[j], loads[j + 1]
        fs = (slew - s0) / (s1 - s0) if s1 > s0 else 0.0
        fl = (load - l0) / (l1 - l0) if l1 > l0 else 0.0
        return (v[i][j] * (1 - fs) * (1 - fl)
                + v[i + 1][j] * fs * (1 - fl)
                + v[i][j + 1] * (1 - fs) * fl
                + v[i + 1][j + 1] * fs * fl)

    def max_value(self) -> float:
        return float(np.nanmax(self.values))


def _locate(axis: list, x: float) -> tuple:
    """``x`` clamped to ``axis`` and the index of the interval holding
    it: ``np.clip`` then ``np.searchsorted(...) - 1`` clipped to
    ``[0, len(axis) - 2]``, on Python floats."""
    if x < axis[0]:
        x = axis[0]
    elif x > axis[-1]:
        x = axis[-1]
    return x, min(max(bisect_left(axis, x) - 1, 0), len(axis) - 2)


@dataclass
class TimingArc:
    """One input-to-output arc of a characterized cell."""

    cell_rise: NldmTable          #: delay to a rising output [s]
    cell_fall: NldmTable          #: delay to a falling output [s]
    rise_transition: NldmTable    #: output rise transition [s]
    fall_transition: NldmTable    #: output fall transition [s]
    inverting: bool = True


@dataclass
class CellCharacterization:
    """A characterized cell: one timing arc plus pin capacitance."""

    name: str
    kind: str
    vddi: float
    vddo: float
    arc: TimingArc
    input_capacitance: float
    slews: tuple = ()
    loads: tuple = ()


def _input_pwl(vddi: float, slew: float, t_rise: float,
               t_fall: float) -> Pwl:
    """Ramped stimulus: reset pulse, then the measured rise and fall.

    The leading pulse initializes any internal latches (a cold DC solve
    of a cross-coupled structure can sit on a metastable branch — see
    :class:`repro.core.characterize.StimulusPlan`).
    """
    reset_slew = min(slew, 50e-12)
    return Pwl([
        (1e-12, 0.0),
        (0.2e-9, 0.0), (0.2e-9 + reset_slew, vddi),
        (1.5e-9, vddi), (1.5e-9 + reset_slew, 0.0),
        (t_rise, 0.0), (t_rise + slew, vddi),
        (t_fall, vddi), (t_fall + slew, 0.0),
    ])


def _estimate_input_capacitance(circuit: Circuit, in_node: str) -> float:
    """Sum gate/overlap capacitance looking into the input pin."""
    from repro.spice.devices import Capacitor as Cap
    total = 0.0
    circuit.finalize()
    for device in circuit.devices_of_type(Cap):
        if in_node in device.nodes:
            total += device.capacitance
    return total


def _grid_measure(params: tuple) -> dict:
    """Characterize one (slew, load) grid point; serial or pooled."""
    kind, vddi, vddo, slew, load, settle, pdk, sizing = params
    t_rise = settle
    t_fall = settle + 3e-9
    t_stop = t_fall + 3e-9
    circuit = Circuit(f"lib_{kind}")
    circuit.add(VoltageSource("vdut", "vddo", "0", dc=vddo))
    circuit.add(VoltageSource("vsrc", "in", "0",
                              shape=_input_pwl(vddi, slew,
                                               t_rise, t_fall)))
    build_dut(circuit, pdk, kind, "in", "out", "vddo", "vddi", sizing)
    add_select_sources(circuit, kind, vddi, vddo)
    circuit.add(Capacitor("cload", "out", "0", float(load)))
    input_cap = _estimate_input_capacitance(circuit, "in")
    options = TransientOptions(h_max=50e-12, dv_max=0.05)
    result = Transient(circuit, t_stop, options).run()
    w_in = result.wave("in")
    w_out = result.wave("out")

    inverting = dut_is_inverting(kind)
    in_edge_for_rise = FALL if inverting else RISE
    in_edge_for_fall = RISE if inverting else FALL
    t_out_rise_after = t_fall if inverting else t_rise
    t_out_fall_after = t_rise if inverting else t_fall
    try:
        return {
            "cell_rise": propagation_delay(
                w_in, w_out, vddi / 2, vddo / 2, in_edge_for_rise,
                RISE, after=t_out_rise_after - 0.05e-9),
            "cell_fall": propagation_delay(
                w_in, w_out, vddi / 2, vddo / 2, in_edge_for_fall,
                FALL, after=t_out_fall_after - 0.05e-9),
            "rise_transition": w_out.transition_time(
                TRANSITION_LOW * vddo, TRANSITION_HIGH * vddo, RISE,
                after=t_out_rise_after - 0.05e-9),
            "fall_transition": w_out.transition_time(
                TRANSITION_LOW * vddo, TRANSITION_HIGH * vddo, FALL,
                after=t_out_fall_after - 0.05e-9),
            "input_capacitance": input_cap,
        }
    except MeasurementError as error:
        raise AnalysisError(
            f"{kind} failed characterization at slew="
            f"{slew:.3g}, load={load:.3g}: {error}") from error


def libchar_spec(kind: str, vddi: float, vddo: float, pdk,
                 slews: Sequence[float] = DEFAULT_SLEWS,
                 loads: Sequence[float] = DEFAULT_LOADS,
                 settle: float = 3e-9, sizing=None, workers: int = 1):
    """Describe an NLDM grid characterization declaratively."""
    from repro.runtime.experiment import ExperimentPoint, ExperimentSpec
    slews = np.asarray(sorted(slews), dtype=float)
    loads = np.asarray(sorted(loads), dtype=float)
    if slews.size < 2 or loads.size < 2:
        raise AnalysisError("need at least 2 slews and 2 loads")
    points = [ExperimentPoint((i, j), (kind, vddi, vddo, float(slew),
                                       float(load), settle, pdk, sizing))
              for i, slew in enumerate(slews)
              for j, load in enumerate(loads)]
    return ExperimentSpec(
        name="libchar", measure=_grid_measure, points=points,
        stage="nldm", codec="json", workers=workers,
        metadata={"experiment": "libchar", "kind": kind, "vddi": vddi,
                  "vddo": vddo, "slews": [float(s) for s in slews],
                  "loads": [float(c) for c in loads],
                  "pdk_node": getattr(pdk, "node", "ptm90")})


def characterize_cell(kind: str, pdk, vddi: float, vddo: float,
                      slews: Sequence[float] = DEFAULT_SLEWS,
                      loads: Sequence[float] = DEFAULT_LOADS,
                      settle: float = 3e-9,
                      sizing=None, workers: int = 1,
                      cache=None) -> CellCharacterization:
    """Build the NLDM tables for one cell at one voltage pair.

    The (slew, load) grid is run through the unified experiment engine;
    ``workers > 1`` distributes grid points over a process pool with
    tables identical to a serial run.
    """
    from repro.runtime.experiment import run_experiment
    spec = libchar_spec(kind, vddi, vddo, pdk, slews=slews, loads=loads,
                        settle=settle, sizing=sizing, workers=workers)
    return cell_from_resultset(run_experiment(spec, cache=cache))


def cell_from_resultset(resultset) -> CellCharacterization:
    """Assemble one cell's NLDM tables from a ``libchar`` run's rows.

    A grid point that failed raises :class:`AnalysisError` (NLDM tables
    cannot carry holes).
    """
    failures = resultset.sample_failures()
    if failures:
        f = failures[0]
        raise AnalysisError(f.error.split(": ", 1)[-1]
                            if f.error.startswith("AnalysisError: ")
                            else f.error)

    meta = resultset.metadata
    kind, vddi, vddo = meta["kind"], meta["vddi"], meta["vddo"]
    slews = np.asarray(meta["slews"], dtype=float)
    loads = np.asarray(meta["loads"], dtype=float)
    shape = (slews.size, loads.size)
    tables = {key: np.full(shape, np.nan) for key in
              ("cell_rise", "cell_fall", "rise_transition",
               "fall_transition")}
    inverting = dut_is_inverting(kind)
    input_cap = None
    for row in resultset.rows:
        i, j = row.index
        for key in tables:
            tables[key][i, j] = row.value[key]
        if input_cap is None:
            input_cap = row.value["input_capacitance"]

    arc = TimingArc(
        cell_rise=NldmTable(slews, loads, tables["cell_rise"]),
        cell_fall=NldmTable(slews, loads, tables["cell_fall"]),
        rise_transition=NldmTable(slews, loads,
                                  tables["rise_transition"]),
        fall_transition=NldmTable(slews, loads,
                                  tables["fall_transition"]),
        inverting=inverting)
    return CellCharacterization(
        name=f"{kind}_{vddi:.2f}_{vddo:.2f}".replace(".", "p"),
        kind=kind, vddi=vddi, vddo=vddo, arc=arc,
        input_capacitance=float(input_cap or 0.0),
        slews=tuple(slews), loads=tuple(loads))


def write_liberty(cells: Sequence[CellCharacterization],
                  library_name: str = "repro_lvl") -> str:
    """Render characterizations as a ``.lib``-like text block.

    The output follows liberty's structure (lu_table_template, cell,
    pin, timing groups) closely enough for human inspection and
    round-trip testing; it is not a validated EDA-tool input.
    """
    if not cells:
        raise AnalysisError("no cells to write")
    first = cells[0]
    lines = [f"library ({library_name}) {{",
             '  time_unit : "1ns";',
             '  capacitive_load_unit (1, pf);',
             f"  lu_table_template (tmpl_{len(first.slews)}x"
             f"{len(first.loads)}) {{",
             "    variable_1 : input_net_transition;",
             "    variable_2 : total_output_net_capacitance;",
             f"    index_1 (\"{', '.join(f'{s * 1e9:.4g}' for s in first.slews)}\");",
             f"    index_2 (\"{', '.join(f'{c * 1e12:.4g}' for c in first.loads)}\");",
             "  }"]

    def table_block(label: str, table: NldmTable) -> list[str]:
        rows = [f"      {label} (tmpl_{len(table.slews)}x"
                f"{len(table.loads)}) {{"]
        rows.append("        values ( \\")
        for i in range(table.slews.size):
            row = ", ".join(f"{v * 1e9:.5f}" for v in table.values[i])
            tail = ", \\" if i < table.slews.size - 1 else " \\"
            rows.append(f'          "{row}"{tail}')
        rows.append("        );")
        rows.append("      }")
        return rows

    for cell in cells:
        lines.append(f"  cell ({cell.name}) {{")
        lines.append(f"    pin (A) {{ direction : input; capacitance : "
                     f"{cell.input_capacitance * 1e12:.5f}; }}")
        lines.append("    pin (Y) {")
        lines.append("      direction : output;")
        sense = "negative_unate" if cell.arc.inverting else \
            "positive_unate"
        lines.append("      timing () {")
        lines.append("        related_pin : \"A\";")
        lines.append(f"        timing_sense : {sense};")
        lines.extend(table_block("cell_rise", cell.arc.cell_rise))
        lines.extend(table_block("rise_transition",
                                 cell.arc.rise_transition))
        lines.extend(table_block("cell_fall", cell.arc.cell_fall))
        lines.extend(table_block("fall_transition",
                                 cell.arc.fall_transition))
        lines.append("      }")
        lines.append("    }")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
