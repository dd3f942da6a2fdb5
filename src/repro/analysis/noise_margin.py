"""Voltage-transfer-curve extraction and static noise margins.

A level shifter's DC robustness is captured by its VTC: the output
levels (VOH/VOL), the input thresholds where the small-signal gain
crosses -1 (VIL/VIH), and the resulting noise margins

    NML = VIL - VOL(driver),   NMH = VOH(driver) - VIH

referred to the *input domain's* levels (the driver swings 0..VDDI).
The curve comes from a DC sweep of the characterization bench with the
DUT input driven directly (the latch state is pinned by sweeping from
the input-high side, where every shifter in the study is driven
unconditionally).

:func:`extract_vtc` is the single-point kernel; :func:`vtc_report`
surveys a list of supply pairs through the unified experiment engine
(``workers``, quarantine, artifact persistence) and summarizes the
margins per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cells.registry import (
    add_select_sources, build_dut, dut_is_inverting,
)
from repro.errors import AnalysisError, MeasurementError
from repro.pdk import Pdk
from repro.runtime.campaign import SampleFailure
from repro.runtime.experiment import (
    ExperimentPoint, ExperimentSpec, ResultSet, run_experiment,
)
from repro.spice import Circuit, DcSweep
from repro.spice.devices import VoltageSource

#: Experiment name shared by specs, result sets, and stored manifests.
EXPERIMENT_NAME = "vtc"

#: Default supply pairs for a VTC survey: up-shift, down-shift, unity.
DEFAULT_PAIRS = ((0.8, 1.2), (1.2, 0.8), (1.0, 1.0))


@dataclass(frozen=True)
class VtcResult:
    """Voltage transfer curve plus extracted figures of merit."""

    vin: np.ndarray
    vout: np.ndarray
    vddi: float
    vddo: float
    inverting: bool
    voh: float          #: output high level [V]
    vol: float          #: output low level [V]
    vil: float          #: input low threshold (gain = -1) [V]
    vih: float          #: input high threshold [V]
    switching_point: float  #: input where vout crosses vddo/2 [V]

    @property
    def nml(self) -> float:
        """Low noise margin, input-domain referred."""
        return self.vil - 0.0

    @property
    def nmh(self) -> float:
        """High noise margin, input-domain referred."""
        return self.vddi - self.vih

    @property
    def output_swing(self) -> float:
        return self.voh - self.vol

    def regenerative(self) -> bool:
        """Peak |gain| > 1: required for restoring logic."""
        gain = np.gradient(self.vout, self.vin)
        return bool(np.max(np.abs(gain)) > 1.0)


def extract_vtc(kind: str, vddi: float, vddo: float,
                pdk: Pdk | None = None, points: int = 121,
                sizing=None) -> VtcResult:
    """DC-sweep the shifter input and extract VTC figures of merit."""
    if points < 11:
        raise AnalysisError("need at least 11 sweep points")
    pdk = pdk or Pdk()
    circuit = Circuit(f"vtc_{kind}")
    circuit.add(VoltageSource("vdut", "vddo", "0", dc=vddo))
    circuit.add(VoltageSource("vdrv", "vddi", "0", dc=vddi))
    circuit.add(VoltageSource("vin", "in", "0", dc=vddi))
    build_dut(circuit, pdk, kind, "in", "out", "vddo", "vddi", sizing)
    add_select_sources(circuit, kind, vddi, vddo)

    # Sweep from the input-high side: that state is driven
    # unconditionally by every DUT, so the latch is pinned correctly
    # and continuation carries the solution branch down the sweep.
    values = np.linspace(vddi, 0.0, points)
    sweep = DcSweep(circuit, "vin", values).run()
    vout = sweep.voltages("out")
    # Re-order ascending in vin for the measurements.
    vin_asc = values[::-1].copy()
    vout_asc = vout[::-1].copy()

    inverting = dut_is_inverting(kind)
    voh = float(np.max(vout_asc))
    vol = float(np.min(vout_asc))

    gain = np.gradient(vout_asc, vin_asc)
    unity = np.nonzero(np.abs(gain) >= 1.0)[0]
    if unity.size == 0:
        raise MeasurementError(
            f"{kind} VTC has no unity-gain region at "
            f"({vddi}, {vddo}) — not a restoring transfer curve")
    vil = float(vin_asc[unity[0]])
    vih = float(vin_asc[unity[-1]])

    mid = vddo / 2.0
    crossing = np.nonzero(np.diff(np.sign(vout_asc - mid)))[0]
    if crossing.size == 0:
        raise MeasurementError(f"{kind} VTC never crosses VDDO/2")
    i = int(crossing[0])
    frac = (mid - vout_asc[i]) / (vout_asc[i + 1] - vout_asc[i])
    switching = float(vin_asc[i] + frac * (vin_asc[i + 1] - vin_asc[i]))

    return VtcResult(vin=vin_asc, vout=vout_asc, vddi=vddi, vddo=vddo,
                     inverting=inverting, voh=voh, vol=vol, vil=vil,
                     vih=vih, switching_point=switching)


@dataclass
class VtcReport:
    """VTC survey over several supply pairs."""

    kind: str
    #: ``(vddi, vddo) -> VtcResult`` for the pairs that extracted.
    results: dict = field(default_factory=dict)
    #: Pairs whose DC sweep failed (quarantined, not raised).
    failures: list[SampleFailure] = field(default_factory=list)
    #: Artifact-store run id, when the campaign was persisted.
    run_id: str | None = None

    @property
    def all_regenerative(self) -> bool:
        return bool(self.results) and all(
            vtc.regenerative() for vtc in self.results.values())

    def worst_margin(self) -> float:
        """Smallest noise margin (NML or NMH) over all pairs [V]."""
        margins = [m for vtc in self.results.values()
                   for m in (vtc.nml, vtc.nmh)]
        return min(margins) if margins else float("nan")

    def pretty(self) -> str:
        lines = [f"VTC survey: {self.kind}"]
        lines.append(f"  {'VDDI':>5s} {'VDDO':>5s} {'VOH':>6s} "
                     f"{'VOL':>6s} {'NML':>6s} {'NMH':>6s} {'regen':>5s}")
        for (vddi, vddo), vtc in sorted(self.results.items()):
            lines.append(
                f"  {vddi:>5.2f} {vddo:>5.2f} {vtc.voh:>6.3f} "
                f"{vtc.vol:>6.3f} {vtc.nml:>6.3f} {vtc.nmh:>6.3f} "
                f"{str(vtc.regenerative()):>5s}")
        for f in self.failures:
            vddi, vddo = f.index
            lines.append(f"  {vddi:>5.2f} {vddo:>5.2f} QUARANTINED "
                         f"[{f.stage}] {f.error}")
        return "\n".join(lines)


def _measure(params: tuple) -> VtcResult:
    """Extract one pair's VTC; shared by serial and pool paths."""
    vddi, vddo, kind, pdk, points, sizing = params
    return extract_vtc(kind, vddi, vddo, pdk=pdk, points=points,
                       sizing=sizing)


def vtc_spec(kind: str, pairs=DEFAULT_PAIRS, pdk: Pdk | None = None,
             points: int = 121, sizing=None,
             workers: int = 1) -> ExperimentSpec:
    """Describe a VTC survey declaratively."""
    if points < 11:
        raise AnalysisError("need at least 11 sweep points")
    spec_points = [
        ExperimentPoint((float(vddi), float(vddo)),
                        (float(vddi), float(vddo), kind, pdk, points,
                         sizing))
        for vddi, vddo in pairs
    ]
    return ExperimentSpec(
        name=EXPERIMENT_NAME, measure=_measure, points=spec_points,
        stage="extract_vtc", codec="vtc", workers=workers,
        metadata={"experiment": "vtc", "kind": kind,
                  "pairs": [[float(a), float(b)] for a, b in pairs],
                  "points": points,
                  "pdk_node": getattr(pdk, "node", "ptm90")})


def report_from_resultset(resultset: ResultSet,
                          kind: str | None = None) -> VtcReport:
    """Assemble the survey report from typed engine rows."""
    report = VtcReport(
        kind=kind if kind is not None
        else resultset.metadata.get("kind", "?"),
        run_id=resultset.run_id)
    for row in resultset.rows:
        if row.ok:
            report.results[row.index] = row.value
        else:
            report.failures.append(row.failure())
    return report


def vtc_report(kind: str, pairs=DEFAULT_PAIRS, pdk: Pdk | None = None,
               points: int = 121, sizing=None,
               workers: int = 1) -> VtcReport:
    """Survey the VTC over several supply pairs.

    ``workers > 1`` distributes pairs over a process pool; per-pair
    results are identical to a serial run. A pair whose DC sweep fails
    (e.g. no unity-gain region) is quarantined into ``failures``
    instead of raising, so one degenerate pair doesn't sink the survey.
    """
    spec = vtc_spec(kind, pairs=pairs, pdk=pdk, points=points,
                    sizing=sizing, workers=workers)
    return report_from_resultset(run_experiment(spec), kind=kind)
