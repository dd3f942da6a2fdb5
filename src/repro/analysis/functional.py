"""Full-grid functional validation (paper Section 4).

"We varied VDDI and VDDO voltage values from 0.8V to 1.4V ... and
simulated our SS-TVS for all VDDI and VDDO combinations. Our SS-TVS
was able to translate the voltage level efficiently for all
combinations."

:func:`validate_functionality` re-runs that claim on a configurable
grid and returns the failing pairs (expected: none for the SS-TVS).
The driver is a thin spec builder over the unified experiment engine:
:func:`functional_spec` enumerates the pairs, the engine runs them,
and :func:`report_from_resultset` folds the rows into a
:class:`FunctionalReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.sweep import SweepGrid
from repro.analysis.sweep import _batch_measure as sweep_batch_measure
from repro.core.characterize import quick_delays
from repro.pdk import Pdk
from repro.runtime.experiment import (
    BatchPointFailure, ExperimentPoint, ExperimentSpec, ResultSet,
    run_experiment,
)

#: Experiment name shared by specs, result sets, and stored manifests.
EXPERIMENT_NAME = "functional"


@dataclass
class FunctionalReport:
    kind: str
    total: int = 0
    passed: int = 0
    failures: list = field(default_factory=list)
    #: Pairs whose simulation escaped the solver's retry ladder (also
    #: counted in ``failures`` as non-converting).
    solver_escapes: list = field(default_factory=list)
    #: Artifact-store run id, when the campaign was persisted.
    run_id: str | None = None

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total and self.total > 0

    def summary(self) -> str:
        status = "PASS" if self.all_passed else "FAIL"
        text = (f"[{status}] {self.kind}: {self.passed}/{self.total} "
                f"(VDDI, VDDO) pairs convert correctly")
        if self.failures:
            pairs = ", ".join(f"({a:.2f}, {b:.2f})" for a, b in
                              self.failures[:10])
            text += f"; failing pairs: {pairs}"
            if len(self.failures) > 10:
                text += f" (+{len(self.failures) - 10} more)"
        if self.solver_escapes:
            text += (f"; {len(self.solver_escapes)} pair(s) quarantined "
                     f"after solver escape")
        return text


def _measure(params: tuple) -> bool:
    """Validate one (VDDI, VDDO) pair; shared by serial and pool paths."""
    vddi, vddo, kind, pdk, sizing = params
    q = quick_delays(pdk, kind, vddi, vddo, sizing=sizing)
    return bool(q.functional)


def _batch_measure(params_list: list) -> list:
    """Validate many (VDDI, VDDO) pairs as SPMD lanes in one call."""
    return [q if isinstance(q, BatchPointFailure) else bool(q.functional)
            for q in sweep_batch_measure(params_list)]


def functional_spec(kind: str, grid: SweepGrid | None = None,
                    pdk: Pdk | None = None, sizing=None,
                    workers: int = 1,
                    backend: str | None = None,
                    solver: str | None = None) -> ExperimentSpec:
    """Describe a functionality-validation campaign declaratively."""
    grid = grid or SweepGrid.with_step(0.1)
    pdk = pdk or Pdk()
    points = [ExperimentPoint((float(vddi), float(vddo)),
                              (float(vddi), float(vddo), kind, pdk,
                               sizing))
              for vddi in grid.vddi_values
              for vddo in grid.vddo_values]
    return ExperimentSpec(
        name=EXPERIMENT_NAME, measure=_measure, points=points,
        stage="quick_delays", codec="json", workers=workers,
        backend=backend, batch_measure=_batch_measure, solver=solver,
        metadata={"experiment": "functional", "kind": kind,
                  "pairs": len(points),
                  "pdk_node": getattr(pdk, "node", "ptm90")})


def report_from_resultset(resultset: ResultSet,
                          kind: str | None = None) -> FunctionalReport:
    """Assemble the classic report type from typed engine rows."""
    report = FunctionalReport(
        kind=kind if kind is not None
        else resultset.metadata.get("kind", "?"),
        run_id=resultset.run_id)
    for row in resultset.rows:
        report.total += 1
        vddi, vddo = row.index
        if not row.ok:
            report.failures.append((vddi, vddo))
            report.solver_escapes.append(row.failure())
            continue
        if row.value:
            report.passed += 1
        else:
            report.failures.append((vddi, vddo))
    return report


def validate_functionality(kind: str, grid: SweepGrid | None = None,
                           pdk: Pdk | None = None, sizing=None,
                           workers: int = 1,
                           backend: str | None = None) -> FunctionalReport:
    """Check correct level conversion at every grid point.

    Pairs run as batched SPMD lanes, and ``workers > 1`` shards them
    over a process pool; ``backend="serial"`` validates one pair at a
    time in-process instead. The report is identical either way (rows
    come back in row-major grid order, and batched lane waveforms are
    bitwise the serial ones).
    """
    spec = functional_spec(kind, grid, pdk=pdk, sizing=sizing,
                           workers=workers, backend=backend)
    return report_from_resultset(run_experiment(spec), kind=kind)
