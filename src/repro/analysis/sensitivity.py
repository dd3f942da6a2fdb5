"""Finite-difference sensitivity of shifter metrics to sizing knobs.

Complements the Monte Carlo engine: where MC answers "how much does
everything vary together", sensitivity answers "which knob moves this
metric" — useful for the ablation studies and for resizing the cell to
another operating pair.

Each knob is a field of :class:`~repro.cells.sstvs.SstvsSizing`; the
metric derivative is estimated with a central difference of the full
characterization at perturbed sizings.

The driver is a thin spec builder over the unified experiment engine:
each knob is one experiment point (two characterizations), so
``workers > 1`` distributes knobs over a process pool with results
bitwise identical to a serial run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from repro.cells.registry import get_cell
from repro.cells.sstvs import SstvsSizing
from repro.core.characterize import StimulusPlan, characterize
from repro.core.metrics import METRIC_FIELDS
from repro.errors import AnalysisError
from repro.pdk import Pdk
from repro.runtime.experiment import (
    ExperimentPoint, ExperimentSpec, ResultSet, run_experiment,
)

#: Sizing fields that are widths/lengths (perturbable).
SIZING_KNOBS = tuple(f.name for f in fields(SstvsSizing)
                     if f.name.startswith(("w_", "l_")))

#: Experiment name shared by specs, result sets, and stored manifests.
EXPERIMENT_NAME = "sensitivity"


@dataclass(frozen=True)
class Sensitivity:
    """Normalized sensitivities of every metric to one knob.

    ``values[metric]`` is d(log metric)/d(log knob): +1.0 means a 10 %
    knob increase raises the metric ~10 %.
    """

    knob: str
    nominal: float
    values: dict

    def dominant_metric(self) -> str:
        return max(self.values, key=lambda k: abs(self.values[k]))


def _measure(params: tuple) -> Sensitivity:
    """Central-difference one knob; shared by serial and pool paths."""
    (knob, relative_step, kind, vddi, vddo, pdk, base, plan) = params
    nominal = getattr(base, knob)
    up = replace(base, **{knob: nominal * (1 + relative_step)})
    down = replace(base, **{knob: nominal * (1 - relative_step)})
    m_up = characterize(pdk, kind, vddi, vddo, plan=plan, sizing=up)
    m_down = characterize(pdk, kind, vddi, vddo, plan=plan, sizing=down)
    values = {}
    for metric in METRIC_FIELDS:
        hi = getattr(m_up, metric)
        lo = getattr(m_down, metric)
        if hi > 0 and lo > 0:
            values[metric] = (math.log(hi / lo)
                              / math.log((1 + relative_step)
                                         / (1 - relative_step)))
        else:
            values[metric] = float("nan")
    return Sensitivity(knob=knob, nominal=nominal, values=values)


def sensitivity_spec(kind: str, vddi: float, vddo: float,
                     knobs=SIZING_KNOBS, relative_step: float = 0.15,
                     pdk: Pdk | None = None,
                     base_sizing: SstvsSizing | None = None,
                     plan: StimulusPlan | None = None,
                     workers: int = 1) -> ExperimentSpec:
    """Describe a sensitivity campaign declaratively (validates args)."""
    if get_cell(kind).sizing_type is not SstvsSizing:
        raise AnalysisError(
            f"sensitivities are defined for the sstvs sizing knobs; "
            f"{kind!r} takes no SstvsSizing")
    if not 0 < relative_step < 0.5:
        raise AnalysisError("relative_step must be in (0, 0.5)")
    unknown = [k for k in knobs if k not in SIZING_KNOBS]
    if unknown:
        raise AnalysisError(f"unknown sizing knobs: {unknown}")
    pdk = pdk or Pdk()
    base = base_sizing or SstvsSizing()
    points = [ExperimentPoint(knob, (knob, relative_step, kind, vddi,
                                     vddo, pdk, base, plan))
              for knob in knobs]
    return ExperimentSpec(
        name=EXPERIMENT_NAME, measure=_measure, points=points,
        stage="characterize", codec="sensitivity", workers=workers,
        metadata={"experiment": "sensitivity", "kind": kind,
                  "vddi": vddi, "vddo": vddo, "knobs": list(knobs),
                  "relative_step": relative_step,
                  "pdk_node": getattr(pdk, "node", "ptm90")})


def sensitivities_from_resultset(resultset: ResultSet
                                 ) -> dict[str, Sensitivity]:
    """Assemble the classic knob->Sensitivity mapping from engine rows.

    A quarantined knob raises, as the legacy serial loop would have.
    """
    failures = resultset.sample_failures()
    if failures:
        f = failures[0]
        raise AnalysisError(
            f"sensitivity for knob {f.index!r} failed: [{f.stage}] "
            f"{f.error}")
    return {row.index: row.value for row in resultset.rows}


def metric_sensitivities(kind: str, vddi: float, vddo: float,
                         knobs=SIZING_KNOBS, relative_step: float = 0.15,
                         pdk: Pdk | None = None,
                         base_sizing: SstvsSizing | None = None,
                         plan: StimulusPlan | None = None,
                         workers: int = 1) -> dict[str, Sensitivity]:
    """Central-difference log-log sensitivities for each knob.

    Only meaningful for the ``"sstvs"`` kind (the sizing dataclass is
    the SS-TVS's); other kinds raise.
    """
    spec = sensitivity_spec(kind, vddi, vddo, knobs=knobs,
                            relative_step=relative_step, pdk=pdk,
                            base_sizing=base_sizing, plan=plan,
                            workers=workers)
    return sensitivities_from_resultset(run_experiment(spec))


def render_sensitivity_table(sensitivities: dict) -> str:
    """Text matrix: knobs x metrics."""
    header = f"{'knob':<10s}" + "".join(f"{m:>14s}" for m in METRIC_FIELDS)
    lines = [header, "-" * len(header)]
    for knob, sens in sensitivities.items():
        row = f"{knob:<10s}" + "".join(
            f"{sens.values[m]:>14.2f}" for m in METRIC_FIELDS)
        lines.append(row)
    return "\n".join(lines)
