"""Multi-voltage SoC modeling: domains, DVS schedules, modules.

The paper motivates the SS-TVS with SoCs whose blocks sit in separate
voltage domains, each possibly running dynamic voltage scaling, so the
relationship between any two domains' supplies changes over time
(Figures 2-3). This module provides the behavioral model those
floorplan-level experiments run on.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.errors import AnalysisError


@dataclass(frozen=True)
class DvsSchedule:
    """Piecewise-constant supply-voltage schedule.

    ``points`` is a sorted list of (time, voltage); the voltage holds
    from its time until the next point. Times are arbitrary units
    (the SoC study only compares orderings and durations).
    """

    points: tuple

    def __post_init__(self):
        if not self.points:
            raise AnalysisError("DVS schedule needs at least one point")
        times = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise AnalysisError("DVS schedule times must increase")
        for _, v in self.points:
            if v <= 0:
                raise AnalysisError("DVS voltages must be positive")

    @classmethod
    def constant(cls, voltage: float) -> "DvsSchedule":
        return cls(points=((0.0, float(voltage)),))

    def voltage_at(self, t: float) -> float:
        times = [p[0] for p in self.points]
        index = max(bisect_right(times, t) - 1, 0)
        return self.points[index][1]

    def change_times(self) -> list[float]:
        return [t for t, _ in self.points[1:]]

    @property
    def min_voltage(self) -> float:
        return min(v for _, v in self.points)

    @property
    def max_voltage(self) -> float:
        return max(v for _, v in self.points)


@dataclass
class VoltageDomain:
    """A named supply domain with a DVS schedule."""

    name: str
    schedule: DvsSchedule

    @classmethod
    def fixed(cls, name: str, voltage: float) -> "VoltageDomain":
        return cls(name, DvsSchedule.constant(voltage))


@dataclass
class Module:
    """An SoC block: a domain plus a floorplan position and size."""

    name: str
    domain: VoltageDomain
    x: float = 0.0          #: floorplan position [um]
    y: float = 0.0
    width: float = 100.0    #: footprint [um]
    height: float = 100.0

    def center(self) -> tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)


@dataclass(frozen=True)
class Crossing:
    """A bundle of signals from one module to another."""

    source: str         #: source module name
    destination: str    #: destination module name
    signals: int = 1

    def __post_init__(self):
        if self.signals < 1:
            raise AnalysisError("crossing needs at least one signal")
        if self.source == self.destination:
            raise AnalysisError("crossing must span two modules")


def relationship_flips(a: DvsSchedule, b: DvsSchedule) -> int:
    """How often the sign of (Va - Vb) changes over both schedules.

    A nonzero count means no static choice between an inverter and a
    one-way level shifter can serve this domain pair — the paper's
    motivation for a *true* shifter.
    """
    times = sorted(set([0.0] + a.change_times() + b.change_times()))
    signs = []
    for t in times:
        diff = a.voltage_at(t) - b.voltage_at(t)
        signs.append(0 if abs(diff) < 1e-12 else (1 if diff > 0 else -1))
    flips = 0
    previous = signs[0]
    for sign in signs[1:]:
        if sign != 0 and previous != 0 and sign != previous:
            flips += 1
        if sign != 0:
            previous = sign
    return flips
