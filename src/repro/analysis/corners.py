"""PVT corner reporting: process corners x temperatures.

The paper validates with Monte Carlo at three temperatures; corner
bracketing (TT/FF/SS/FS/SF at each temperature) is the complementary
industrial signoff view this extension adds. The report shows every
metric at every PVT point and flags functional failures.

The driver is a thin spec builder over the unified experiment engine:
:func:`pvt_spec` enumerates the (corner, temperature) points, the
engine runs them, and :func:`report_from_resultset` folds the rows
into a :class:`PvtReport` (quarantined points become non-functional
NaN entries, as before).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.characterize import StimulusPlan, characterize
from repro.core.metrics import METRIC_FIELDS, ShifterMetrics
from repro.errors import AnalysisError
from repro.pdk import CORNER_SHIFTS, CornerPdk
from repro.runtime.campaign import SampleFailure
from repro.runtime.experiment import (
    ExperimentPoint, ExperimentSpec, ResultSet, run_experiment,
)
from repro.units import format_eng

DEFAULT_CORNERS = tuple(sorted(CORNER_SHIFTS))
DEFAULT_TEMPS = (27.0, 90.0)

#: Experiment name shared by specs, result sets, and stored manifests.
EXPERIMENT_NAME = "pvt"


@dataclass
class PvtPoint:
    corner: str
    temperature_c: float
    metrics: ShifterMetrics


@dataclass
class PvtReport:
    kind: str
    vddi: float
    vddo: float
    points: list = field(default_factory=list)
    #: PVT points whose simulation escaped the solver's retry ladder;
    #: they still appear in ``points`` as non-functional NaN entries.
    failures: list[SampleFailure] = field(default_factory=list)
    #: Artifact-store run id, when the campaign was persisted.
    run_id: str | None = None

    @property
    def all_functional(self) -> bool:
        return all(p.metrics.functional for p in self.points)

    @property
    def quarantined(self) -> list[tuple[str, float]]:
        """``(corner, temperature)`` pairs of quarantined points."""
        return [f.index for f in self.failures]

    def worst(self, metric: str) -> PvtPoint:
        if metric not in METRIC_FIELDS:
            raise AnalysisError(f"unknown metric {metric!r}")
        candidates = [p for p in self.points if p.metrics.functional]
        if not candidates:
            raise AnalysisError("no functional PVT points")
        return max(candidates, key=lambda p: getattr(p.metrics, metric))

    def spread(self, metric: str) -> float:
        """max/min ratio of a metric across functional points."""
        values = [getattr(p.metrics, metric) for p in self.points
                  if p.metrics.functional]
        if not values or min(values) <= 0:
            return float("nan")
        return max(values) / min(values)

    def pretty(self) -> str:
        lines = [f"PVT report: {self.kind}, {self.vddi} V -> "
                 f"{self.vddo} V"]
        header = (f"  {'corner':<6s} {'T[C]':>6s} {'d_rise':>9s} "
                  f"{'d_fall':>9s} {'leak_hi':>9s} {'leak_lo':>9s} "
                  f"{'func':>5s}")
        lines.append(header)
        for p in self.points:
            m = p.metrics
            lines.append(
                f"  {p.corner:<6s} {p.temperature_c:>6.1f} "
                f"{format_eng(m.delay_rise, 's', 3):>9s} "
                f"{format_eng(m.delay_fall, 's', 3):>9s} "
                f"{format_eng(m.leakage_high, 'A', 3):>9s} "
                f"{format_eng(m.leakage_low, 'A', 3):>9s} "
                f"{str(m.functional):>5s}")
        if self.failures:
            lines.append(f"  quarantined {len(self.failures)} point(s): "
                         + ", ".join(f"{c}@{t:g}C"
                                     for c, t in self.quarantined))
        return "\n".join(lines)


def _measure(params: tuple) -> ShifterMetrics:
    """Characterize one PVT point; shared by serial and pool paths."""
    corner, temp, kind, vddi, vddo, plan, sizing, node = params
    pdk = CornerPdk(corner, temperature_c=temp, node=node)
    return characterize(pdk, kind, vddi, vddo, plan=plan, sizing=sizing)


def pvt_spec(kind: str, vddi: float, vddo: float,
             corners=DEFAULT_CORNERS, temperatures=DEFAULT_TEMPS,
             plan: StimulusPlan | None = None, sizing=None,
             workers: int = 1,
             pdk_node: str = "ptm90") -> ExperimentSpec:
    """Describe a PVT-corner campaign declaratively."""
    points = [ExperimentPoint((corner, float(temp)),
                              (corner, float(temp), kind, vddi, vddo,
                               plan, sizing, pdk_node))
              for corner in corners for temp in temperatures]
    return ExperimentSpec(
        name=EXPERIMENT_NAME, measure=_measure, points=points,
        stage="characterize", codec="metrics", workers=workers,
        metadata={"experiment": "pvt", "kind": kind, "vddi": vddi,
                  "vddo": vddo, "corners": list(corners),
                  "temperatures": [float(t) for t in temperatures],
                  "pdk_node": pdk_node})


def report_from_resultset(resultset: ResultSet,
                          kind: str | None = None,
                          vddi: float | None = None,
                          vddo: float | None = None) -> PvtReport:
    """Assemble the classic report type from typed engine rows."""
    meta = resultset.metadata
    report = PvtReport(
        kind=kind if kind is not None else meta.get("kind", "?"),
        vddi=vddi if vddi is not None else meta.get("vddi", float("nan")),
        vddo=vddo if vddo is not None else meta.get("vddo", float("nan")),
        run_id=resultset.run_id)
    nan = float("nan")
    for row in resultset.rows:
        corner, temp = row.index
        if not row.ok:
            report.failures.append(row.failure())
            metrics = ShifterMetrics(nan, nan, nan, nan, nan, nan,
                                     functional=False)
        else:
            metrics = row.value
        report.points.append(PvtPoint(corner, temp, metrics))
    return report


def pvt_report(kind: str, vddi: float, vddo: float,
               corners=DEFAULT_CORNERS, temperatures=DEFAULT_TEMPS,
               plan: StimulusPlan | None = None,
               sizing=None, workers: int = 1,
               pdk_node: str = "ptm90") -> PvtReport:
    """Characterize at every (corner, temperature) combination.

    ``workers > 1`` distributes PVT points over a process pool; the
    report lists points in the same (corner-major) order either way.
    """
    spec = pvt_spec(kind, vddi, vddo, corners=corners,
                    temperatures=temperatures, plan=plan, sizing=sizing,
                    workers=workers, pdk_node=pdk_node)
    return report_from_resultset(run_experiment(spec), kind=kind,
                                 vddi=vddi, vddo=vddo)
