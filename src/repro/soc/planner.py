"""Level-shifter insertion planning for a multi-voltage SoC.

Quantifies the paper's Figures 2-3 motivation: with conventional
dual-supply shifters (CVS), every destination module must have the
supply rail of *each* source domain routed to it; with single-supply
shifters, only local supplies are needed. The combined VS additionally
needs a routed direction-control signal per domain pair, and the
SS-TVS needs nothing beyond the local rail.

The planner is the floorplanner with the placement held fixed: it
assigns each strategy's cell with :func:`repro.floorplan.assign_shifters`
(cell area, static leakage, and DVS feasibility of the one-way
strategies) and prices the extra rails and control wires with the
annealer's :class:`repro.floorplan.CostModel` at the modules' own
centres. The strategies themselves live in
:data:`repro.cells.registry.SHIFTER_STRATEGIES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cells.registry import SHIFTER_STRATEGIES
from repro.pdk import Pdk
from repro.soc.domain import Crossing, Module

CVS_STRATEGY = "cvs"
COMBINED_STRATEGY = "combined"
SSTVS_STRATEGY = "sstvs"
#: Static one-way strategies, included to demonstrate DVS infeasibility.
INVERTER_STRATEGY = "inverter"
SSVS_STRATEGY = "ssvs"
STRATEGIES = tuple(SHIFTER_STRATEGIES)


@dataclass
class PlanReport:
    """Costs of one shifter-insertion strategy on one SoC."""

    strategy: str
    feasible: bool = True
    infeasible_pairs: list = field(default_factory=list)
    shifter_count: int = 0
    extra_supply_rails: int = 0
    supply_route_length: float = 0.0   #: [um]
    supply_route_area: float = 0.0     #: [um^2]
    control_wires: int = 0
    control_route_length: float = 0.0  #: [um]
    shifter_area: float = 0.0          #: [um^2]
    leakage: float = 0.0               #: [A] total static, worst state

    @property
    def total_wiring_area(self) -> float:
        from repro.floorplan.anneal import SIGNAL_WIDTH
        return (self.supply_route_area
                + self.control_route_length * SIGNAL_WIDTH)

    def summary(self) -> str:
        status = "feasible" if self.feasible else "INFEASIBLE"
        return (f"{self.strategy:>8s}: {status}, "
                f"{self.shifter_count} shifters, "
                f"{self.extra_supply_rails} extra rails "
                f"({self.supply_route_length:.0f} um routed), "
                f"{self.control_wires} control wires, "
                f"cell area {self.shifter_area:.2f} um^2, "
                f"wiring area {self.total_wiring_area:.1f} um^2, "
                f"leakage {self.leakage * 1e9:.1f} nA")


class Soc:
    """A floorplanned multi-voltage SoC with inter-module crossings."""

    def __init__(self, modules: list[Module], crossings: list[Crossing]):
        # repro.floorplan imports repro.soc.domain, so this import
        # (and the planner's) stays out of module scope.
        from repro.floorplan.design import SocDesign
        #: The same blocks and nets as a floorplanner design (which
        #: validates names and endpoints).
        self.design = SocDesign("soc", tuple(modules), tuple(crossings))
        self.modules = {m.name: m for m in modules}
        self.crossings = list(crossings)

    def domain_pairs(self):
        """Unique (source domain, destination domain) pairs crossed."""
        return self.design.crossing_domain_pairs()


class ShifterPlanner:
    """Costs each insertion strategy on a given SoC."""

    def __init__(self, soc: Soc, pdk: Pdk | None = None,
                 characterize_leakage: bool = True, cache=None):
        self.soc = soc
        self.pdk = pdk or Pdk()
        self.characterize_leakage = characterize_leakage
        #: Optional :class:`repro.runtime.cache.SolveCache`: leakage
        #: characterizations are keyed content-addressed and replayed
        #: bitwise on warm plans instead of re-paying every solve.
        self.cache = cache

    def plan(self, strategy: str) -> PlanReport:
        from repro.floorplan.anneal import CostModel, ObjectiveWeights
        from repro.floorplan.assign import assign_shifters
        design = self.soc.design
        assignment = assign_shifters(
            design, strategy, pdk=self.pdk, cache=self.cache,
            characterize_leakage=self.characterize_leakage)
        weights = ObjectiveWeights()
        centres = np.asarray([m.center() for m in design.modules],
                             dtype=float).reshape(-1, 2)
        # The bounding box is not part of a plan: price it as empty.
        cost = CostModel(design, assignment, weights).breakdown(
            centres[:, 0], centres[:, 1], 0.0, 0.0)
        return PlanReport(
            strategy=strategy, feasible=not assignment.infeasible,
            infeasible_pairs=list(assignment.infeasible),
            shifter_count=assignment.shifter_count,
            extra_supply_rails=cost.rails,
            supply_route_length=cost.rail_length,
            supply_route_area=cost.rail_length * weights.rail,
            control_wires=cost.controls,
            control_route_length=cost.control_length,
            shifter_area=cost.shifter_area, leakage=cost.leakage)

    def compare(self) -> dict[str, PlanReport]:
        """Plan all strategies; returns reports keyed by strategy."""
        return {strategy: self.plan(strategy) for strategy in STRATEGIES}
