"""Shifter-cell assignment for every domain crossing of a design.

Each strategy of :data:`repro.cells.registry.SHIFTER_STRATEGIES` maps
onto one registered cell; the registry's declarative flags then drive
the floorplan objective with no cell-kind dispatch here:

* ``uses_vddi_rail`` (CVS): every destination block needs the source
  domain's supply rail routed to it — the paper's Figure 2 penalty,
  priced by the annealer as placement-dependent routed rail length;
* ``needs_select`` (combined VS): a direction-control wire per
  (source domain, destination block) — Figure 3;
* neither (SS-TVS): no extra routing at all.

A one-way strategy (plain inverter, one-way SS-VS) additionally
records every crossing whose DVS schedules ever ask for the direction
its cell cannot shift.

Per-crossing costs come from cached characterizations
(:func:`repro.core.worst_leakage` through a :class:`SolveCache`) or,
when a ``LEADERBOARD.json``-style artifact is supplied, from its
per-node typical-corner entries — so assignment never pays a SPICE
solve the leaderboard already recorded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cells.registry import SHIFTER_STRATEGIES, get_cell
from repro.errors import AnalysisError
from repro.floorplan.design import SocDesign


@dataclass(frozen=True)
class CrossingAssignment:
    """One shifted crossing: which cell, at which voltages, at what
    static cost."""

    source: str
    destination: str
    signals: int
    cell: str
    vddi: float
    vddo: float
    area_um2: float        #: one shifter instance
    leakage_a: float       #: one shifter instance, worst state


@dataclass(frozen=True)
class ShifterAssignment:
    """Every crossing of one design assigned to one strategy's cell."""

    strategy: str
    cell: str
    crossings: tuple              #: tuple[CrossingAssignment]
    uses_vddi_rail: bool
    needs_select: bool
    #: (source, destination) of every crossing the cell cannot shift
    #: in some DVS state; always empty for a two-way strategy.
    infeasible: tuple = ()

    @property
    def shifter_count(self) -> int:
        return sum(c.signals for c in self.crossings)

    @property
    def shifter_area(self) -> float:
        """Total shifter cell area [um^2]."""
        return sum(c.signals * c.area_um2 for c in self.crossings)

    @property
    def leakage(self) -> float:
        """Total worst-state shifter leakage [A]."""
        return sum(c.signals * c.leakage_a for c in self.crossings)


def leaderboard_leakage(board: dict, node: str) -> dict:
    """cell kind -> worst typical-corner leakage [A] on one node.

    Accepts a ``LEADERBOARD.json``-style artifact (see
    :mod:`repro.analysis.leaderboard`); functional ``tt`` entries only.
    """
    out: dict = {}
    for entry in board.get("entries", ()):
        if (entry.get("node") != node or entry.get("corner") != "tt"
                or not entry.get("functional")):
            continue
        worst = max(entry["leakage_high"], entry["leakage_low"])
        out[entry["cell"]] = worst
    return out


def assign_shifters(design: SocDesign, strategy: str, pdk=None,
                    cache=None, characterize_leakage: bool = True,
                    leakage_table: dict | None = None
                    ) -> ShifterAssignment:
    """Assign ``strategy``'s registered cell to every domain crossing.

    Leakage per crossing comes from ``leakage_table`` (a
    :func:`leaderboard_leakage` lookup) when given, else from cached
    SPICE characterizations when ``characterize_leakage`` is on, else
    zero (pure-geometry costing for fast sweeps). Area always comes
    from the registry's area probe through :mod:`repro.layout`.
    """
    if strategy not in SHIFTER_STRATEGIES:
        raise AnalysisError(
            f"unknown shifter strategy {strategy!r}; expected one "
            f"of {tuple(SHIFTER_STRATEGIES)}")
    entry = SHIFTER_STRATEGIES[strategy]
    kind = entry.cell
    spec = get_cell(kind)
    if pdk is None:
        from repro.pdk import Pdk
        pdk = Pdk()
    from repro.layout import estimate_cell_area
    area = estimate_cell_area(spec.area_probe, pdk).total_area_um2

    leakage_at: dict = {}

    def _leakage(vddi: float, vddo: float) -> float:
        if leakage_table is not None:
            return leakage_table.get(kind, 0.0)
        if not characterize_leakage:
            return 0.0
        key = (round(vddi, 6), round(vddo, 6))
        if key not in leakage_at:
            from repro.core import worst_leakage
            leakage_at[key] = worst_leakage(pdk, kind, vddi, vddo,
                                            cache=cache)
        return leakage_at[key]

    by_name = design.module_map()
    crossings = []
    infeasible = []
    for net in design.domain_crossings():
        src = by_name[net.source].domain.schedule
        dst = by_name[net.destination].domain.schedule
        # Representative voltages: each domain's initial schedule point.
        vddi = src.voltage_at(0.0)
        vddo = dst.voltage_at(0.0)
        crossings.append(CrossingAssignment(
            source=net.source, destination=net.destination,
            signals=net.signals, cell=kind, vddi=vddi, vddo=vddo,
            area_um2=area, leakage_a=_leakage(vddi, vddo)))
        if entry.up and entry.down:
            continue
        # A one-way cell works only if the schedules never ask for the
        # other direction (which also rules out any ordering flip).
        always_down = src.min_voltage >= dst.max_voltage
        always_up = src.max_voltage <= dst.min_voltage
        if not ((entry.down and always_down)
                or (entry.up and always_up)):
            infeasible.append((net.source, net.destination))
    return ShifterAssignment(strategy=strategy, cell=kind,
                             crossings=tuple(crossings),
                             uses_vddi_rail=spec.uses_vddi_rail,
                             needs_select=spec.needs_select,
                             infeasible=tuple(infeasible))
