"""DVS schedule generation.

The paper's DVS voltage ladder and a periodic race-to-idle schedule,
which the floorplanner's synthetic design generator uses to give DVS
domains their supply schedules.
"""

from __future__ import annotations

from repro.errors import AnalysisError
from repro.soc.domain import DvsSchedule

#: The paper's DVS voltage ladder [V].
DEFAULT_LADDER = (0.8, 1.0, 1.2, 1.4)


def periodic_schedule(high: float, low: float, period: float,
                      duty: float = 0.5, cycles: int = 4,
                      start: float = 0.0) -> DvsSchedule:
    """Race-to-idle style: ``high`` for duty*period, then ``low``."""
    if not 0.0 < duty < 1.0:
        raise AnalysisError("duty must be in (0, 1)")
    if period <= 0 or cycles < 1:
        raise AnalysisError("need positive period and >= 1 cycle")
    points = []
    for k in range(cycles):
        t0 = start + k * period
        points.append((t0, high))
        points.append((t0 + duty * period, low))
    return DvsSchedule(tuple(points))
