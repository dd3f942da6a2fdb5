"""Inductor with an MNA branch current.

DC: an ideal short (the branch equation degenerates to v = 0).
Transient: companion resistance in the branch equation —

========  ==============  ==================================
method    Req             Veq (RHS of the branch equation)
========  ==============  ==================================
be        L / dt          Req * i_prev
trap      2 L / dt        Req * i_prev + v_prev
========  ==============  ==================================

so the stamped branch row reads ``v(a) - v(b) - Req i = -Veq``...
concretely ``v - Req i = -Veq`` with the sign convention that the
branch current flows a -> b through the inductor.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ModelError
from repro.spice.devices.base import TwoTerminal
from repro.spice.integration import BACKWARD_EULER
from repro.spice.mna import StampContext


class Inductor(TwoTerminal):
    """Ideal linear inductor.

    Args:
        inductance: value in henries; must be positive.
        ic: optional initial branch current [A].
    """

    def __init__(self, name: str, pos: str, neg: str, inductance: float,
                 ic: float | None = None):
        super().__init__(name, pos, neg)
        if inductance <= 0:
            raise ModelError(
                f"{name}: inductance must be > 0, got {inductance}")
        self.inductance = float(inductance)
        self.ic = ic
        self.branch_indices: list[int] = []
        self._i_prev = 0.0
        self._v_prev = 0.0

    def branch_count(self) -> int:
        return 1

    stamp_kind = "linear"

    def _companion(self, integrator) -> tuple[float, float]:
        if integrator.method == BACKWARD_EULER:
            req = self.inductance / integrator.dt
            return req, req * self._i_prev
        req = 2.0 * self.inductance / integrator.dt
        return req, req * self._i_prev + self._v_prev

    def linear_matrix_entries(self) -> list:
        a, b = self.node_indices
        br = self.branch_indices[0]
        return [(a, br, 1.0), (b, br, -1.0), (br, a, 1.0), (br, b, -1.0)]

    def reactive_matrix_entries(self, integrator) -> list:
        req, _ = self._companion_coefficients(integrator)
        return [(self.branch_indices[0], self.branch_indices[0], -req)]

    def _companion_coefficients(self, integrator) -> tuple[float, float]:
        """(req, unused) without touching state — for the matrix cache."""
        if integrator.method == BACKWARD_EULER:
            return self.inductance / integrator.dt, 0.0
        return 2.0 * self.inductance / integrator.dt, 0.0

    def dynamic_rhs_entries(self, time, source_scale, integrator) -> list:
        if integrator is None:
            return []
        _, veq = self._companion(integrator)
        return [(self.branch_indices[0], -veq)]

    def stamp(self, ctx: StampContext) -> None:
        a, b = self.node_indices
        br = self.branch_indices[0]
        sys_ = ctx.system
        sys_.add_matrix(a, br, 1.0)
        sys_.add_matrix(b, br, -1.0)
        sys_.add_matrix(br, a, 1.0)
        sys_.add_matrix(br, b, -1.0)
        if ctx.integrator is not None:
            req, veq = self._companion(ctx.integrator)
            sys_.add_matrix(br, br, -req)
            sys_.add_rhs(br, -veq)
        # DC: no -Req i term -> v(a) - v(b) = 0, an ideal short.

    def init_state(self, voltages: Sequence[float]) -> None:
        self._i_prev = (self.ic if self.ic is not None
                        else float(voltages[self.branch_indices[0]]))
        self._v_prev = 0.0

    def update_state(self, voltages: Sequence[float], integrator) -> None:
        a, b = self.node_indices
        va = voltages[a] if a >= 0 else 0.0
        vb = voltages[b] if b >= 0 else 0.0
        self._v_prev = va - vb
        self._i_prev = float(voltages[self.branch_indices[0]])
