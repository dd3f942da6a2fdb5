"""Closed-loop level-shifter-aware floorplanning.

The paper's wiring argument, made placement-quantitative: generate or
bridge a multi-voltage SoC (:mod:`repro.floorplan.design`), assign a
registered shifter cell to every domain crossing
(:mod:`repro.floorplan.assign`), anneal a sequence-pair floorplan
whose objective prices the extra rails and control wires each
strategy drags in (:mod:`repro.floorplan.anneal`), and gate every
candidate through NLDM static timing
(:mod:`repro.floorplan.signoff`). The whole loop runs as a standard
experiment-engine campaign (:mod:`repro.floorplan.campaign`,
``repro floorplan``).
"""

from repro.cells.registry import FLOORPLAN_STRATEGIES
from repro.floorplan.anneal import (
    CostBreakdown, CostModel, FloorplanResult, ObjectiveWeights,
    anneal_floorplan, default_moves, pack_sequence_pair,
)
from repro.floorplan.assign import (
    CrossingAssignment, ShifterAssignment, assign_shifters,
    leaderboard_leakage,
)
from repro.floorplan.campaign import (
    DEFAULT_REQUIRED, FLOORPLAN_EXPERIMENT, best_by_strategy,
    floorplan_spec,
)
from repro.floorplan.design import (
    SocDesign, design_from_verilog, generate_design,
)
from repro.floorplan.signoff import (
    CrossingPath, SignoffReport, build_crossing_netlist,
    build_timing_library, derated_characterization, signoff_floorplan,
    synthetic_characterization, verify_crossing_paths,
)

__all__ = [
    "SocDesign",
    "generate_design",
    "design_from_verilog",
    "FLOORPLAN_STRATEGIES",
    "CrossingAssignment",
    "ShifterAssignment",
    "assign_shifters",
    "leaderboard_leakage",
    "ObjectiveWeights",
    "CostBreakdown",
    "CostModel",
    "FloorplanResult",
    "pack_sequence_pair",
    "anneal_floorplan",
    "default_moves",
    "CrossingPath",
    "SignoffReport",
    "build_crossing_netlist",
    "build_timing_library",
    "synthetic_characterization",
    "derated_characterization",
    "verify_crossing_paths",
    "signoff_floorplan",
    "FLOORPLAN_EXPERIMENT",
    "DEFAULT_REQUIRED",
    "floorplan_spec",
    "best_by_strategy",
]
