"""Temperature validation (paper Section 4: 27 / 60 / 90 C).

The paper repeats its Monte Carlo functional validation at three
temperatures and reports correct conversion everywhere, with results
"substantially similar" to the 27 C tables. This module provides both
a nominal temperature sweep of the six metrics and a Monte Carlo
repeat at each temperature.

Both flows route through the unified experiment engine:
:func:`temperature_spec` describes the nominal sweep declaratively
(``workers > 1`` runs temperatures in parallel, bitwise identical to
serial), and :func:`monte_carlo_over_temperature` forwards ``workers``
into each per-temperature Monte Carlo campaign.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.montecarlo import (
    MonteCarloConfig, MonteCarloResult, run_monte_carlo,
)
from repro.core.characterize import characterize
from repro.core.metrics import ShifterMetrics
from repro.pdk import Pdk
from repro.runtime.experiment import (
    ExperimentPoint, ExperimentSpec, ResultSet, run_experiment,
)

#: The paper's validation temperatures [C].
PAPER_TEMPERATURES = (27.0, 60.0, 90.0)

#: Experiment name shared by specs, result sets, and stored manifests.
EXPERIMENT_NAME = "temperature"


@dataclass
class TemperaturePoint:
    temperature_c: float
    metrics: ShifterMetrics


def _measure(params: tuple) -> ShifterMetrics:
    """Characterize at one temperature; shared by serial/pool paths."""
    temp, kind, vddi, vddo, sizing, node = params
    pdk = Pdk(temperature_c=temp, node=node)
    return characterize(pdk, kind, vddi, vddo, sizing=sizing)


def temperature_spec(kind: str, vddi: float, vddo: float,
                     temperatures=PAPER_TEMPERATURES, sizing=None,
                     workers: int = 1,
                     pdk_node: str = "ptm90") -> ExperimentSpec:
    """Describe a nominal temperature sweep declaratively."""
    points = [ExperimentPoint(float(temp),
                              (float(temp), kind, vddi, vddo, sizing,
                               pdk_node))
              for temp in temperatures]
    return ExperimentSpec(
        name=EXPERIMENT_NAME, measure=_measure, points=points,
        stage="characterize", codec="metrics", workers=workers,
        metadata={"experiment": "temperature", "kind": kind,
                  "vddi": vddi, "vddo": vddo,
                  "temperatures": [float(t) for t in temperatures],
                  "pdk_node": pdk_node})


def points_from_resultset(resultset: ResultSet) -> list[TemperaturePoint]:
    """Assemble the classic point list from typed engine rows.

    Quarantined temperatures appear as non-functional NaN entries so
    the sweep shape is preserved.
    """
    nan = float("nan")
    points = []
    for row in resultset.rows:
        metrics = row.value if row.ok else ShifterMetrics(
            nan, nan, nan, nan, nan, nan, functional=False)
        points.append(TemperaturePoint(row.index, metrics))
    return points


def sweep_temperature(kind: str, vddi: float, vddo: float,
                      temperatures=PAPER_TEMPERATURES,
                      sizing=None, workers: int = 1,
                      pdk_node: str = "ptm90") -> list[TemperaturePoint]:
    """Nominal-process characterization at each temperature."""
    spec = temperature_spec(kind, vddi, vddo, temperatures=temperatures,
                            sizing=sizing, workers=workers,
                            pdk_node=pdk_node)
    return points_from_resultset(run_experiment(spec))


def monte_carlo_over_temperature(kind: str, vddi: float, vddo: float,
                                 runs: int = 50,
                                 temperatures=PAPER_TEMPERATURES,
                                 seed: int = 20080310,
                                 sizing=None, workers: int = 1,
                                 pdk_node: str = "ptm90"
                                 ) -> dict[float, MonteCarloResult]:
    """Monte Carlo repeated per temperature (paper's validation).

    ``workers`` parallelizes the samples *within* each temperature's
    campaign; per-sample seeds derive from the sample index, so the
    tables match a serial run bitwise.
    """
    results = {}
    for temp in temperatures:
        config = MonteCarloConfig(runs=runs, seed=seed,
                                  temperature_c=temp, workers=workers,
                                  pdk_node=pdk_node)
        results[temp] = run_monte_carlo(kind, vddi, vddo, config,
                                        sizing=sizing)
    return results
