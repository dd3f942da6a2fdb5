"""Independent sources and their time-domain waveform shapes.

Waveform shapes (:class:`Dc`, :class:`Pulse`, :class:`Pwl`) are small
value objects exposing ``value(t)`` and ``breakpoints(t_stop)``; sources
delegate to them. Breakpoints are fed to the transient engine so every
edge of a pulse/PWL stimulus lands exactly on a time point.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from repro.errors import ModelError
from repro.spice.devices.base import TwoTerminal
from repro.spice.mna import StampContext


class Dc:
    """Constant value waveform."""

    def __init__(self, value: float):
        self.dc = float(value)

    def value(self, t: float) -> float:
        return self.dc

    def breakpoints(self, t_stop: float) -> list[float]:
        return []

    def __repr__(self) -> str:
        return f"Dc({self.dc})"


class Pulse:
    """SPICE PULSE waveform: v1 v2 delay rise fall width period."""

    def __init__(self, v1: float, v2: float, delay: float = 0.0,
                 rise: float = 1e-12, fall: float = 1e-12,
                 width: float = 1e-9, period: float | None = None):
        if rise <= 0 or fall <= 0:
            raise ModelError("pulse rise/fall times must be > 0")
        if width < 0:
            raise ModelError("pulse width must be >= 0")
        self.v1, self.v2 = float(v1), float(v2)
        self.delay, self.rise, self.fall = float(delay), float(rise), float(fall)
        self.width = float(width)
        min_period = self.rise + self.width + self.fall
        self.period = float(period) if period is not None else min_period * 2
        if self.period < min_period:
            raise ModelError(
                f"pulse period {self.period} shorter than rise+width+fall")

    def value(self, t: float) -> float:
        if t < self.delay:
            return self.v1
        tau = (t - self.delay) % self.period
        if tau < self.rise:
            return self.v1 + (self.v2 - self.v1) * tau / self.rise
        tau -= self.rise
        if tau < self.width:
            return self.v2
        tau -= self.width
        if tau < self.fall:
            return self.v2 + (self.v1 - self.v2) * tau / self.fall
        return self.v1

    def breakpoints(self, t_stop: float) -> list[float]:
        points: list[float] = []
        start = self.delay
        while start <= t_stop:
            edges = (start, start + self.rise,
                     start + self.rise + self.width,
                     start + self.rise + self.width + self.fall)
            points.extend(e for e in edges if e <= t_stop)
            start += self.period
        return points


class Pwl:
    """Piece-wise-linear waveform from (time, value) pairs."""

    def __init__(self, points: Sequence[tuple[float, float]]):
        if len(points) < 1:
            raise ModelError("PWL needs at least one (time, value) point")
        times = [float(t) for t, _ in points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ModelError("PWL times must be strictly increasing")
        self.times = times
        self.values = [float(v) for _, v in points]

    def value(self, t: float) -> float:
        if t <= self.times[0]:
            return self.values[0]
        if t >= self.times[-1]:
            return self.values[-1]
        i = bisect_right(self.times, t) - 1
        t0, t1 = self.times[i], self.times[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def breakpoints(self, t_stop: float) -> list[float]:
        return [t for t in self.times if t <= t_stop]


def _as_shape(dc, shape):
    if shape is not None:
        return shape
    return Dc(dc if dc is not None else 0.0)


class VoltageSource(TwoTerminal):
    """Independent voltage source with an MNA branch current.

    The branch current is the current flowing from the positive terminal
    through the source to the negative terminal; a supply sourcing
    current into a load therefore reads a *negative* branch current, as
    in SPICE.
    """

    stamp_kind = "linear"

    def __init__(self, name: str, pos: str, neg: str,
                 dc: float | None = None, shape=None):
        super().__init__(name, pos, neg)
        self.shape = _as_shape(dc, shape)
        self.branch_indices: list[int] = []

    def branch_count(self) -> int:
        return 1

    def value(self, t: float) -> float:
        return self.shape.value(t)

    def linear_matrix_entries(self) -> list:
        a, b = self.node_indices
        br = self.branch_indices[0]
        return [(a, br, 1.0), (b, br, -1.0), (br, a, 1.0), (br, b, -1.0)]

    def dynamic_rhs_entries(self, time, source_scale, integrator) -> list:
        return [(self.branch_indices[0], self.value(time) * source_scale)]

    def stamp(self, ctx: StampContext) -> None:
        sys_ = ctx.system
        for row, col, value in self.linear_matrix_entries():
            sys_.add_matrix(row, col, value)
        for row, value in self.dynamic_rhs_entries(ctx.time,
                                                   ctx.source_scale, None):
            sys_.add_rhs(row, value)

    def breakpoints(self, t_stop: float) -> list[float]:
        return self.shape.breakpoints(t_stop)


class CurrentSource(TwoTerminal):
    """Independent current source; positive current flows pos -> neg
    through the source (i.e. is pulled out of ``pos`` and injected into
    ``neg``)."""

    stamp_kind = "linear"

    def __init__(self, name: str, pos: str, neg: str,
                 dc: float | None = None, shape=None):
        super().__init__(name, pos, neg)
        self.shape = _as_shape(dc, shape)

    def value(self, t: float) -> float:
        return self.shape.value(t)

    def dynamic_rhs_entries(self, time, source_scale, integrator) -> list:
        a, b = self.node_indices
        current = self.value(time) * source_scale
        return [(a, -current), (b, current)]

    def stamp(self, ctx: StampContext) -> None:
        for row, value in self.dynamic_rhs_entries(ctx.time,
                                                   ctx.source_scale, None):
            ctx.system.add_rhs(row, value)

    def breakpoints(self, t_stop: float) -> list[float]:
        return self.shape.breakpoints(t_stop)
