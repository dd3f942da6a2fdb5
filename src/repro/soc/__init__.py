"""SoC-level multi-voltage modeling and shifter-insertion planning."""

from repro.soc.domain import (
    Crossing, DvsSchedule, Module, VoltageDomain, relationship_flips,
)
from repro.soc.dvs import DEFAULT_LADDER, periodic_schedule
from repro.soc.planner import (
    COMBINED_STRATEGY, CVS_STRATEGY, INVERTER_STRATEGY, PlanReport,
    STRATEGIES, SSTVS_STRATEGY, SSVS_STRATEGY, ShifterPlanner, Soc,
)

__all__ = [
    "Crossing",
    "DvsSchedule",
    "Module",
    "VoltageDomain",
    "relationship_flips",
    "Soc",
    "ShifterPlanner",
    "PlanReport",
    "STRATEGIES",
    "CVS_STRATEGY",
    "COMBINED_STRATEGY",
    "SSTVS_STRATEGY",
    "INVERTER_STRATEGY",
    "SSVS_STRATEGY",
    "DEFAULT_LADDER",
    "periodic_schedule",
]
