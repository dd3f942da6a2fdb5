"""VDDI x VDDO delay-surface sweeps (paper Figures 8 and 9).

The paper sweeps both supplies from 0.8 V to 1.4 V (5 mV steps in the
paper; configurable here — the benches default to 50 mV, which resolves
the same surfaces at tractable cost) and plots the rising and falling
delays, demonstrating smooth behaviour and full-range functionality.

The driver is a thin spec builder over the unified experiment engine:
:func:`sweep_spec` enumerates the grid cells, the engine runs them
(workers / quarantine / Ctrl-C partials / resume), and
:func:`surface_from_resultset` folds the typed rows back into the
classic :class:`DelaySurface`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.characterize import quick_delays, quick_delays_batch
from repro.errors import AnalysisError
from repro.pdk import Pdk
from repro.runtime.campaign import SampleFailure, failure_summary
from repro.runtime.experiment import (
    ExperimentPoint, ExperimentSpec, ResultSet, run_experiment,
)

#: The paper's DVS operating range [V].
VDD_MIN = 0.8
VDD_MAX = 1.4

#: Experiment name shared by specs, result sets, and stored manifests.
EXPERIMENT_NAME = "sweep"


@dataclass
class SweepGrid:
    """Rectangular (VDDI, VDDO) grid."""

    vddi_values: np.ndarray = field(
        default_factory=lambda: np.round(np.arange(VDD_MIN, VDD_MAX + 1e-9,
                                                   0.05), 4))
    vddo_values: np.ndarray = field(
        default_factory=lambda: np.round(np.arange(VDD_MIN, VDD_MAX + 1e-9,
                                                   0.05), 4))

    @classmethod
    def with_step(cls, step: float) -> "SweepGrid":
        if step <= 0:
            raise AnalysisError("grid step must be positive")
        values = np.round(np.arange(VDD_MIN, VDD_MAX + 1e-9, step), 4)
        return cls(vddi_values=values, vddo_values=values.copy())


@dataclass
class DelaySurface:
    """Rise/fall delay and functionality over the grid.

    ``rise[i, j]`` is the rising delay at ``vddi_values[i]``,
    ``vddo_values[j]`` (NaN where non-functional).
    """

    vddi_values: np.ndarray
    vddo_values: np.ndarray
    rise: np.ndarray
    fall: np.ndarray
    functional: np.ndarray
    #: Grid points whose simulation escaped the solver's retry ladder
    #: (quarantined as non-functional NaN cells instead of raised).
    failures: list[SampleFailure] = field(default_factory=list)
    #: Artifact-store run id, when the campaign was persisted.
    run_id: str | None = None

    @property
    def functional_fraction(self) -> float:
        return float(np.mean(self.functional))

    @property
    def quarantined(self) -> list[tuple[int, int]]:
        """Grid positions ``(i, j)`` of quarantined points."""
        return [f.index for f in self.failures]

    def failure_summary(self, limit: int = 10) -> str:
        return failure_summary(int(self.functional.size), self.failures,
                               limit=limit)

    def worst_rise(self) -> float:
        return float(np.nanmax(self.rise))

    def worst_fall(self) -> float:
        return float(np.nanmax(self.fall))

    def is_smooth(self, factor: float = 4.0) -> bool:
        """No adjacent-cell delay jump larger than ``factor``x.

        A loose smoothness check matching the paper's qualitative claim
        that delays "change smoothly with changing VDDI and VDDO".
        """
        for surface in (self.rise, self.fall):
            for axis in (0, 1):
                a = np.swapaxes(surface, 0, axis)
                ratio = a[1:] / a[:-1]
                ratio = ratio[np.isfinite(ratio)]
                if ratio.size and (np.max(ratio) > factor
                                   or np.min(ratio) < 1.0 / factor):
                    return False
        return True


def _measure(params: tuple):
    """Simulate one grid cell; shared by the serial and pool paths."""
    vddi, vddo, kind, pdk, sizing = params
    return quick_delays(pdk, kind, vddi, vddo, sizing=sizing)


def _batch_measure(params_list: list) -> list:
    """Simulate many grid cells as SPMD lanes in one call.

    Each lane is :func:`quick_delays` at its default stimulus, and
    batched lane waveforms are bitwise the serial ones, so every entry
    is the :class:`QuickDelays` :func:`_measure` would return.
    """
    return quick_delays_batch([(pdk, kind, vddi, vddo, 3.0e-9, 2.5e-9,
                                sizing)
                               for vddi, vddo, kind, pdk, sizing
                               in params_list])


def sweep_spec(kind: str, grid: SweepGrid | None = None,
               pdk: Pdk | None = None, sizing=None,
               workers: int = 1) -> ExperimentSpec:
    """Describe a delay-surface sweep declaratively."""
    grid = grid or SweepGrid()
    pdk = pdk or Pdk()
    points = [ExperimentPoint((i, j), (float(vddi), float(vddo), kind,
                                       pdk, sizing))
              for i, vddi in enumerate(grid.vddi_values)
              for j, vddo in enumerate(grid.vddo_values)]
    return ExperimentSpec(
        name=EXPERIMENT_NAME, measure=_measure, points=points,
        stage="quick_delays", codec="quick_delays", workers=workers,
        batch_measure=_batch_measure,
        metadata={"experiment": "sweep", "kind": kind,
                  "vddi_values": [float(v) for v in grid.vddi_values],
                  "vddo_values": [float(v) for v in grid.vddo_values],
                  "pdk_node": getattr(pdk, "node", "ptm90")})


def grid_from_resultset(resultset: ResultSet) -> SweepGrid:
    """Recover the grid a stored sweep ran over (from its metadata)."""
    meta = resultset.metadata
    if "vddi_values" not in meta or "vddo_values" not in meta:
        raise AnalysisError("result set has no sweep grid metadata")
    return SweepGrid(
        vddi_values=np.asarray(meta["vddi_values"], dtype=float),
        vddo_values=np.asarray(meta["vddo_values"], dtype=float))


def surface_from_resultset(resultset: ResultSet,
                           grid: SweepGrid | None = None) -> DelaySurface:
    """Assemble the classic surface type from typed engine rows."""
    grid = grid or grid_from_resultset(resultset)
    shape = (grid.vddi_values.size, grid.vddo_values.size)
    rise = np.full(shape, np.nan)
    fall = np.full(shape, np.nan)
    functional = np.zeros(shape, dtype=bool)
    failures: list[SampleFailure] = []
    for row in resultset.rows:
        i, j = row.index
        if not row.ok:
            failures.append(row.failure())
            continue
        q = row.value
        rise[i, j] = q.delay_rise
        fall[i, j] = q.delay_fall
        functional[i, j] = q.functional
    return DelaySurface(grid.vddi_values.copy(), grid.vddo_values.copy(),
                        rise, fall, functional, failures=failures,
                        run_id=resultset.run_id)


def sweep_delay_surface(kind: str, grid: SweepGrid | None = None,
                        pdk: Pdk | None = None, sizing=None,
                        progress=None, workers: int = 1) -> DelaySurface:
    """Run :func:`quick_delays` over the grid; returns the surfaces.

    Cells run as batched SPMD lanes, and ``workers > 1`` shards them
    over a process pool; cell results are bitwise those of
    :func:`quick_delays` point by point, but ``progress`` fires in
    completion order (with the cell indices attached) rather than
    row-major order. To persist, resume or cache the sweep, run
    :func:`sweep_spec` through :func:`run_experiment` and assemble
    with :func:`surface_from_resultset`.
    """
    grid = grid or SweepGrid()
    spec = sweep_spec(kind, grid, pdk=pdk, sizing=sizing, workers=workers)
    engine_progress = None
    if progress is not None:
        def engine_progress(index, q):
            progress(index[0], index[1], q)
    resultset = run_experiment(spec, progress=engine_progress)
    return surface_from_resultset(resultset, grid)


def render_surface_ascii(surface: DelaySurface, which: str = "rise",
                         width: int = 6) -> str:
    """Text rendering of a delay surface in picoseconds (for benches)."""
    data = surface.rise if which == "rise" else surface.fall
    header = "VDDI\\VDDO " + " ".join(
        f"{v:>{width}.2f}" for v in surface.vddo_values)
    lines = [header]
    for i, vddi in enumerate(surface.vddi_values):
        cells = " ".join(
            f"{data[i, j] * 1e12:>{width}.1f}" if np.isfinite(data[i, j])
            else " " * (width - 4) + "FAIL"
            for j in range(surface.vddo_values.size))
        lines.append(f"{vddi:>9.2f} {cells}")
    return "\n".join(lines)
