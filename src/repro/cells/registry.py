"""Plugin registry for DUT cells: the only place that knows a kind.

Every layer that used to switch on ``kind == ...`` strings — testbench
construction, library characterization, VTC extraction, the batched and
sharded campaign paths, the CLI's argument choices — now resolves the
kind through this registry. A :class:`CellSpec` carries everything
those layers need declaratively:

* a *normalized builder*: every cell, whatever its native ``add_*``
  signature, builds through the same
  ``(circuit, pdk, name, inp, out, vddo_node, vddi_node, sizing)``
  adapter;
* the cell's polarity (``inverting``), domain requirements
  (``uses_vddi_rail`` for dual-supply cells, ``needs_select`` for
  externally steered ones), device count and sizing type;
* provenance metadata naming the source publication.

Registering a new topology makes it a first-class citizen everywhere
at once — benches, Monte Carlo, corners, the liberty writer, the
leaderboard, ``repro check --cells`` — with zero edits outside its own
module. Unknown kinds fail with the live registry listing, never a
hardcoded tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import AnalysisError


@dataclass(frozen=True)
class CellSpec:
    """Descriptor for one registered DUT cell.

    Attributes:
        name: registry key (the classic ``kind`` string).
        build: normalized builder
            ``(circuit, pdk, name, inp, out, vddo_node, vddi_node,
            sizing) -> dict`` returning the cell's device/node map.
        inverting: output polarity (False for e.g. the CVS).
        uses_vddi_rail: the cell needs the input-domain supply routed
            in (the wiring cost single-supply designs eliminate).
        needs_select: the cell needs external direction-select sources
            (``sel``/``selb`` nodes) on the bench.
        device_count: transistor count of the default-sized cell.
        sizing_type: dataclass accepted as the ``sizing`` argument, or
            None when the cell has no sizing knobs.
        area_probe: the native ``add_*`` builder handed to
            :func:`repro.layout.area.estimate_cell_area` (pin names are
            filled from its signature), or None to skip area reports.
        provenance: source publication / section for the topology.
        description: one-line human summary for listings.
    """

    name: str
    build: Callable
    inverting: bool = True
    uses_vddi_rail: bool = False
    needs_select: bool = False
    device_count: int = 0
    sizing_type: type | None = None
    area_probe: Callable | None = None
    provenance: str = ""
    description: str = ""

    def select_levels(self, vddi: float, vddo: float) -> tuple:
        """(sel, selb) levels steering a ``needs_select`` cell.

        Select the level-up path for a low-to-high shift, the inverter
        path otherwise — the combined VS convention from the paper.
        """
        sel = vddo if vddi < vddo else 0.0
        return sel, vddo - sel


@dataclass(frozen=True)
class ShifterStrategy:
    """One shifter-insertion strategy: the registered cell placed on
    every domain crossing, and the shift directions that cell serves
    (``down`` is VDDI >= VDDO, ``up`` is VDDI <= VDDO)."""

    cell: str
    up: bool = True
    down: bool = True


#: Strategy name -> strategy, shared by the fixed-placement planner
#: (:mod:`repro.soc`) and the floorplanner (:mod:`repro.floorplan`).
#: A plain inverter only shifts down and Khan's one-way SS-VS only up,
#: so a DVS pair whose ordering flips breaks both.
SHIFTER_STRATEGIES = {
    "sstvs": ShifterStrategy("sstvs"),
    "combined": ShifterStrategy("combined"),
    "cvs": ShifterStrategy("cvs"),
    "inverter": ShifterStrategy("inverter", up=False),
    "ssvs": ShifterStrategy("ssvs_khan", down=False),
}
#: The strategies that serve both directions: the ones worth annealing.
FLOORPLAN_STRATEGIES = tuple(name for name, s in SHIFTER_STRATEGIES.items()
                             if s.up and s.down)

_CELLS: dict[str, CellSpec] = {}


def register_cell(spec: CellSpec, replace: bool = False) -> CellSpec:
    """Register a cell; re-registration requires ``replace=True``."""
    if not spec.name:
        raise AnalysisError("cell name must be non-empty")
    if spec.name in _CELLS and not replace:
        raise AnalysisError(
            f"cell {spec.name!r} is already registered; pass "
            f"replace=True to override it")
    _CELLS[spec.name] = spec
    return spec


def get_cell(kind: str) -> CellSpec:
    """Look a cell up by kind; unknown kinds list the live registry."""
    try:
        return _CELLS[kind]
    except KeyError:
        raise AnalysisError(
            f"unknown DUT kind {kind!r}; registered cells: "
            f"{', '.join(cell_names())}") from None


def cell_names() -> tuple:
    """Registered cell names, in registration order."""
    return tuple(_CELLS)


def build_dut(circuit, pdk, kind: str, inp: str, out: str,
              vddo_node: str, vddi_node: str, sizing=None) -> dict:
    """Instantiate one registered DUT; returns its device/node map."""
    return get_cell(kind).build(circuit, pdk, "dut", inp, out,
                                vddo_node, vddi_node, sizing)


def dut_is_inverting(kind: str) -> bool:
    """Polarity of a registered DUT."""
    return get_cell(kind).inverting


def add_select_sources(circuit, kind: str, vddi: float,
                       vddo: float) -> bool:
    """Add the external direction-select sources a cell requires.

    Benches call this once before building the DUT; it is a no-op for
    self-directed cells. Returns whether sources were added.
    """
    spec = get_cell(kind)
    if not spec.needs_select:
        return False
    from repro.spice.devices import VoltageSource
    sel_level, selb_level = spec.select_levels(vddi, vddo)
    circuit.add(VoltageSource("vsel", "sel", "0", dc=sel_level))
    circuit.add(VoltageSource("vselb", "selb", "0", dc=selb_level))
    return True


# ---------------------------------------------------------------------------
# Built-in registrations (the paper's cells plus the extension zoo).
# Normalized-builder adapters absorb each native signature's quirks so
# every other layer sees one construction path.


def _register_builtin_cells() -> None:
    from repro.cells.combined_vs import add_combined_vs
    from repro.cells.cvs import add_cvs
    from repro.cells.inverter import add_inverter
    from repro.cells.lpls import add_lpls_pass, add_lpls_split
    from repro.cells.sstvs import SstvsSizing, add_sstvs
    from repro.cells.ssvs import add_ssvs_khan, add_ssvs_puri
    from repro.cells.ulpls import add_ulpls

    def _build_sstvs(circuit, pdk, name, inp, out, vddo, vddi, sizing):
        return add_sstvs(circuit, pdk, name, inp, out, vddo,
                         sizing=sizing if isinstance(sizing, SstvsSizing)
                         else None)

    def _build_combined(circuit, pdk, name, inp, out, vddo, vddi, sizing):
        return add_combined_vs(circuit, pdk, name, inp, out, vddo,
                               "sel", "selb")

    def _build_inverter(circuit, pdk, name, inp, out, vddo, vddi, sizing):
        return add_inverter(circuit, pdk, name, inp, out, vddo)

    def _build_ssvs_khan(circuit, pdk, name, inp, out, vddo, vddi, sizing):
        return add_ssvs_khan(circuit, pdk, name, inp, out, vddo)

    def _build_ssvs_puri(circuit, pdk, name, inp, out, vddo, vddi, sizing):
        return add_ssvs_puri(circuit, pdk, name, inp, out, vddo)

    def _build_cvs(circuit, pdk, name, inp, out, vddo, vddi, sizing):
        return add_cvs(circuit, pdk, name, inp, out, vddi, vddo)

    def _build_lpls_split(circuit, pdk, name, inp, out, vddo, vddi, sizing):
        return add_lpls_split(circuit, pdk, name, inp, out, vddi, vddo)

    def _build_lpls_pass(circuit, pdk, name, inp, out, vddo, vddi, sizing):
        return add_lpls_pass(circuit, pdk, name, inp, out, vddo)

    def _build_ulpls(circuit, pdk, name, inp, out, vddo, vddi, sizing):
        return add_ulpls(circuit, pdk, name, inp, out, vddo)

    register_cell(CellSpec(
        name="sstvs", build=_build_sstvs, inverting=True,
        device_count=13, sizing_type=SstvsSizing, area_probe=add_sstvs,
        provenance="DATE 2008, Figure 4 (the paper's contribution)",
        description="single-supply true VS: bidirectional, no select"))
    register_cell(CellSpec(
        name="combined", build=_build_combined, inverting=True,
        needs_select=True, device_count=18, area_probe=add_combined_vs,
        provenance="DATE 2008, Figure 3 (combined VS baseline)",
        description="mux of SS-VS and inverter paths, external select"))
    register_cell(CellSpec(
        name="inverter", build=_build_inverter, inverting=True,
        device_count=2, area_probe=add_inverter,
        provenance="reference gate (paper Tables 1-4 baseline column)",
        description="plain VDDO inverter, the do-nothing baseline"))
    register_cell(CellSpec(
        name="ssvs_khan", build=_build_ssvs_khan, inverting=True,
        device_count=8, area_probe=add_ssvs_khan,
        provenance="Khan et al. [6] (paper Section 2 reconstruction)",
        description="single-supply VS with feedback rail keeper"))
    register_cell(CellSpec(
        name="ssvs_puri", build=_build_ssvs_puri, inverting=True,
        device_count=7, area_probe=add_ssvs_puri,
        provenance="Puri et al. [13] (paper Section 2 reconstruction)",
        description="single-supply VS on a diode-dropped virtual rail"))
    register_cell(CellSpec(
        name="cvs", build=_build_cvs, inverting=False,
        uses_vddi_rail=True, device_count=6, area_probe=add_cvs,
        provenance="DATE 2008, Figure 1 (conventional dual-supply VS)",
        description="DCVS level shifter, needs both supplies routed"))
    register_cell(CellSpec(
        name="lpls_split", build=_build_lpls_split, inverting=False,
        uses_vddi_rail=True, device_count=8, area_probe=add_lpls_split,
        provenance="arXiv 1011.0507 (Kumar/Arya/Pandey), "
                   "contention-split DCVS variant",
        description="DCVS with input-gated split pull-ups cutting "
                    "crowbar contention"))
    register_cell(CellSpec(
        name="lpls_pass", build=_build_lpls_pass, inverting=True,
        device_count=4, area_probe=add_lpls_pass,
        provenance="arXiv 1011.0507 (Kumar/Arya/Pandey), "
                   "pass-transistor variant",
        description="NMOS pass gate + keeper half-latch, 4 devices"))
    register_cell(CellSpec(
        name="ulpls", build=_build_ulpls, inverting=True,
        device_count=7, area_probe=add_ulpls,
        provenance="arXiv 2302.08553 (22 nm ULPLS), current-mirror "
                   "input sense",
        description="current-mirror shifter detecting sub-threshold "
                    "input swings"))


_register_builtin_cells()
