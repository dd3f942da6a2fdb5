"""Tests for the inductor."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.spice import Circuit, OperatingPoint, Transient
from repro.spice.devices import (
    Capacitor, Inductor, Pulse, Resistor, VoltageSource,
)


class TestInductorDc:
    def test_rejects_nonpositive(self):
        with pytest.raises(ModelError):
            Inductor("l", "a", "b", 0.0)

    def test_dc_short(self):
        ckt = Circuit("t")
        ckt.add(VoltageSource("v", "a", "0", dc=1.0))
        ckt.add(Inductor("l", "a", "b", 1e-6))
        ckt.add(Resistor("r", "b", "0", 1e3))
        op = OperatingPoint(ckt).run()
        assert op["b"] == pytest.approx(1.0, rel=1e-6)

    def test_dc_branch_current(self):
        ckt = Circuit("t")
        ckt.add(VoltageSource("v", "a", "0", dc=2.0))
        ckt.add(Inductor("l", "a", "b", 1e-6))
        ckt.add(Resistor("r", "b", "0", 1e3))
        op = OperatingPoint(ckt).run()
        idx = ckt.branch_index("l")
        assert op.x[idx] == pytest.approx(2e-3, rel=1e-6)


class TestInductorTransient:
    def test_lr_time_constant(self):
        ckt = Circuit("lr")
        ckt.add(VoltageSource("v", "in", "0", shape=Pulse(
            0, 1, delay=1e-9, rise=1e-12, fall=1e-12, width=50e-9,
            period=200e-9)))
        ckt.add(Inductor("l", "in", "mid", 1e-6))
        ckt.add(Resistor("r", "mid", "0", 1e3))
        res = Transient(ckt, 6e-9).run()  # tau = L/R = 1 ns
        w = res.wave("mid")
        assert w.value_at(2e-9) == pytest.approx(1 - np.exp(-1),
                                                 abs=0.01)

    def test_current_continuity(self):
        # The inductor current must not jump at the stimulus edge.
        ckt = Circuit("lr")
        ckt.add(VoltageSource("v", "in", "0", shape=Pulse(
            0, 1, delay=1e-9, rise=1e-12, fall=1e-12, width=50e-9,
            period=200e-9)))
        ckt.add(Inductor("l", "in", "mid", 1e-6))
        ckt.add(Resistor("r", "mid", "0", 1e3))
        res = Transient(ckt, 3e-9).run()
        i_l = res.branch_current("v")
        # Just after the edge the current is still ~0 (inductor blocks).
        assert abs(i_l.value_at(1.02e-9)) < 5e-5

    def test_lc_oscillation(self):
        # Undriven LC tank rung by a pulse through a resistor: the
        # output oscillates near f0 = 1/(2 pi sqrt(LC)).
        ckt = Circuit("lc")
        ckt.add(VoltageSource("v", "in", "0", shape=Pulse(
            0, 1, delay=0.5e-9, rise=1e-11, fall=1e-11, width=100e-9,
            period=400e-9)))
        ckt.add(Resistor("r", "in", "tank", 10e3))
        ckt.add(Inductor("l", "tank", "0", 1e-6))
        ckt.add(Capacitor("c", "tank", "0", 1e-12))
        res = Transient(ckt, 40e-9).run()
        crossings = res.wave("tank").crossings(0.0)
        assert len(crossings) >= 4, "LC tank failed to ring"
