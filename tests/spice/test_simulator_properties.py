"""Property-based tests of simulator-wide invariants.

These pin down the physics/numerics contracts the higher layers rely
on: linear-circuit superposition, reciprocity of resistive networks,
integration-order behaviour of the transient methods, and the EKV
model's drain/source antisymmetry.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.spice import Circuit, OperatingPoint, Transient
from repro.spice.devices import (
    Capacitor, Mosfet, Pulse, Resistor, VoltageSource,
)
from repro.spice.transient import TransientOptions

resistances = st.floats(min_value=10.0, max_value=1e6)
voltages = st.floats(min_value=-5.0, max_value=5.0)


def ladder_circuit(r_values, v1, v2):
    """A resistor ladder driven by two sources (always solvable)."""
    ckt = Circuit("ladder")
    ckt.add(VoltageSource("va", "n0", "0", dc=v1))
    ckt.add(VoltageSource("vb", f"n{len(r_values)}", "0", dc=v2))
    for i, r in enumerate(r_values):
        ckt.add(Resistor(f"r{i}", f"n{i}", f"n{i + 1}", r))
        ckt.add(Resistor(f"rg{i}", f"n{i + 1}", "0", 10 * r))
    return ckt


class TestLinearSuperposition:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(resistances, min_size=2, max_size=6),
           voltages, voltages)
    def test_superposition(self, r_values, v1, v2):
        """V(node | v1, v2) = V(node | v1, 0) + V(node | 0, v2)."""
        mid = f"n{len(r_values) // 2}"
        both = OperatingPoint(ladder_circuit(r_values, v1, v2)).run()[mid]
        only_a = OperatingPoint(ladder_circuit(r_values, v1, 0.0)
                                ).run()[mid]
        only_b = OperatingPoint(ladder_circuit(r_values, 0.0, v2)
                                ).run()[mid]
        assert both == pytest.approx(only_a + only_b, rel=1e-6,
                                     abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(resistances, min_size=2, max_size=6), voltages)
    def test_scaling(self, r_values, v1):
        """Doubling the only source doubles every node voltage."""
        mid = f"n{len(r_values) // 2}"
        base = OperatingPoint(ladder_circuit(r_values, v1, 0.0)
                              ).run()[mid]
        doubled = OperatingPoint(ladder_circuit(r_values, 2 * v1, 0.0)
                                 ).run()[mid]
        assert doubled == pytest.approx(2 * base, rel=1e-6, abs=1e-9)


class TestReciprocity:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(resistances, min_size=3, max_size=6))
    def test_transfer_resistance_symmetric(self, r_values):
        """For a reciprocal (resistive) network, V_j from a source at i
        equals V_i from the same source at j."""
        def transfer(inject_at, observe_at):
            ckt = Circuit("recip")
            from repro.spice.devices import CurrentSource
            ckt.add(CurrentSource("itest", "0", inject_at, dc=1e-3))
            for i, r in enumerate(r_values):
                ckt.add(Resistor(f"r{i}", f"n{i}", f"n{i + 1}", r))
                ckt.add(Resistor(f"rg{i}", f"n{i}", "0", 5 * r))
            ckt.add(Resistor("rend", f"n{len(r_values)}", "0",
                             r_values[0]))
            return OperatingPoint(ckt).run()[observe_at]

        first, last = "n0", f"n{len(r_values)}"
        forward = transfer(first, last)
        backward = transfer(last, first)
        assert forward == pytest.approx(backward, rel=1e-6, abs=1e-12)


class TestIntegrationAccuracy:
    def _rc_error(self, dv_max):
        ckt = Circuit("rc")
        ckt.add(VoltageSource("v", "in", "0", shape=Pulse(
            0, 1, delay=0.5e-9, rise=1e-12, fall=1e-12, width=40e-9,
            period=100e-9)))
        ckt.add(Resistor("r", "in", "out", 1e3))
        ckt.add(Capacitor("c", "out", "0", 1e-12))
        res = Transient(ckt, 4.5e-9,
                        TransientOptions(dv_max=dv_max)).run()
        errors = []
        for t_ns in (1.5, 2.5, 3.5):
            t = t_ns * 1e-9
            exact = 1.0 - math.exp(-(t - 0.5e-9) / 1e-9)
            errors.append(abs(res.wave("out").value_at(t) - exact))
        return max(errors)

    def test_accuracy_floor_at_any_step_setting(self):
        # The engine's accuracy floor (h_max-limited tail steps) sits
        # near 2e-4 for this RC regardless of dv_max; every setting
        # must stay well under 1e-3.
        for dv_max in (0.2, 0.05, 0.02):
            assert self._rc_error(dv_max) < 1e-3

    def test_trapezoidal_beats_first_order_bound(self):
        # At dv_max 0.05 (roughly 20 points/swing), trapezoidal should
        # track an RC exponential to well under 1 %.
        assert self._rc_error(0.05) < 1e-2


class TestEkvSymmetry:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(vd=st.floats(min_value=0.0, max_value=1.4),
           vs=st.floats(min_value=0.0, max_value=1.4),
           vg=st.floats(min_value=0.0, max_value=1.4))
    def test_drain_source_antisymmetry(self, nmos_params, vd, vs, vg):
        """Swapping drain and source negates the current (the channel
        has no preferred direction; CLM/DIBL use |Vds| precisely to
        preserve this)."""
        device = Mosfet("m", "d", "g", "s", "b", nmos_params,
                        0.2e-6, 0.1e-6)
        forward = device.drain_current(vd, vg, vs, 0.0)
        backward = device.drain_current(vs, vg, vd, 0.0)
        scale = max(abs(forward), 1e-15)
        assert backward == pytest.approx(-forward, rel=1e-6,
                                         abs=scale * 1e-6)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(vg=st.floats(min_value=0.0, max_value=1.4),
           vd=st.floats(min_value=0.01, max_value=1.4))
    def test_current_monotone_in_gate(self, nmos_params, vg, vd):
        device = Mosfet("m", "d", "g", "s", "b", nmos_params,
                        0.2e-6, 0.1e-6)
        lower = device.drain_current(vd, vg, 0.0, 0.0)
        higher = device.drain_current(vd, vg + 0.05, 0.0, 0.0)
        assert higher >= lower


class TestKclAtConvergence:
    def test_mos_inverter_kcl(self, pdk):
        """At the converged OP, the supply current equals the PMOS
        channel current (KCL through the output node)."""
        from repro.cells import add_inverter
        ckt = Circuit("inv")
        ckt.add(VoltageSource("vdd", "vdd", "0", dc=1.2))
        ckt.add(VoltageSource("vin", "in", "0", dc=0.55))
        add_inverter(ckt, pdk, "g", "in", "out", "vdd")
        op = OperatingPoint(ckt).run()
        # Drain-terminal current (positive into the drain); a negative
        # node index is ground.
        currents = {
            device.name: device.drain_current(
                *(0.0 if i < 0 else float(op.x[i])
                  for i in device.node_indices))
            for device in ckt if isinstance(device, Mosfet)}
        # PMOS drain current (into 'out') ~ -(NMOS drain current).
        assert currents["g.mp"] == pytest.approx(-currents["g.mn"],
                                                 rel=1e-3)
        # Supply delivers what the PMOS channel carries (gate-leak
        # corrections are orders of magnitude below the crowbar here).
        assert op.supply_current("vdd") == pytest.approx(
            -currents["g.mp"], rel=0.02)
