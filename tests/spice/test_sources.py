"""Tests for independent sources and waveform shapes."""

import pytest

from repro.errors import ModelError
from repro.spice import Circuit, OperatingPoint
from repro.spice.devices import (
    CurrentSource, Dc, Pulse, Pwl, Resistor, VoltageSource,
)


class TestDc:
    def test_constant(self):
        shape = Dc(1.5)
        assert shape.value(0.0) == 1.5
        assert shape.value(1e-6) == 1.5
        assert shape.breakpoints(1.0) == []


class TestPulse:
    def _pulse(self, **kw):
        defaults = dict(v1=0.0, v2=1.0, delay=1e-9, rise=1e-10,
                        fall=2e-10, width=1e-9, period=4e-9)
        defaults.update(kw)
        return Pulse(**defaults)

    def test_before_delay(self):
        assert self._pulse().value(0.5e-9) == 0.0

    def test_plateau(self):
        assert self._pulse().value(1.5e-9) == 1.0

    def test_rising_interpolation(self):
        pulse = self._pulse()
        assert pulse.value(1e-9 + 0.5e-10) == pytest.approx(0.5)

    def test_falling_interpolation(self):
        pulse = self._pulse()
        t = 1e-9 + 1e-10 + 1e-9 + 1e-10  # halfway down the fall
        assert pulse.value(t) == pytest.approx(0.5)

    def test_periodicity(self):
        pulse = self._pulse()
        assert pulse.value(1.5e-9) == pulse.value(1.5e-9 + 4e-9)

    def test_breakpoints_cover_edges(self):
        points = self._pulse().breakpoints(3e-9)
        assert 1e-9 in points
        assert pytest.approx(1.1e-9) in points

    def test_zero_rise_rejected(self):
        with pytest.raises(ModelError):
            self._pulse(rise=0.0)

    def test_period_shorter_than_shape_rejected(self):
        with pytest.raises(ModelError):
            self._pulse(period=0.5e-9)

    def test_default_period(self):
        pulse = Pulse(0, 1, width=1e-9)
        assert pulse.period >= pulse.rise + pulse.width + pulse.fall


class TestPwl:
    def test_interpolation(self):
        pwl = Pwl([(0.0, 0.0), (1e-9, 1.0), (2e-9, 0.5)])
        assert pwl.value(0.5e-9) == pytest.approx(0.5)
        assert pwl.value(1.5e-9) == pytest.approx(0.75)

    def test_clamping_at_ends(self):
        pwl = Pwl([(1e-9, 0.2), (2e-9, 0.9)])
        assert pwl.value(0.0) == 0.2
        assert pwl.value(5e-9) == 0.9

    def test_nonmonotonic_rejected(self):
        with pytest.raises(ModelError):
            Pwl([(0.0, 0.0), (1e-9, 1.0), (1e-9, 0.0)])

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            Pwl([])

    def test_breakpoints_limited_to_window(self):
        pwl = Pwl([(0.0, 0.0), (1e-9, 1.0), (9e-9, 0.0)])
        assert pwl.breakpoints(2e-9) == [0.0, 1e-9]


class TestVoltageSource:
    def test_branch_current_sign_convention(self):
        # Sourcing supply: branch current (pos -> neg internal) is
        # negative; supply_current is positive.
        ckt = Circuit("t")
        ckt.add(VoltageSource("v", "a", "0", dc=1.0))
        ckt.add(Resistor("r", "a", "0", 1e3))
        op = OperatingPoint(ckt).run()
        assert op.current("v") < 0
        assert op.supply_current("v") == pytest.approx(1e-3, rel=1e-6)

    def test_series_sources(self):
        ckt = Circuit("t")
        ckt.add(VoltageSource("v1", "a", "0", dc=1.0))
        ckt.add(VoltageSource("v2", "b", "a", dc=0.5))
        ckt.add(Resistor("r", "b", "0", 1e3))
        op = OperatingPoint(ckt).run()
        assert op["b"] == pytest.approx(1.5, rel=1e-9)

    def test_default_zero_volts(self):
        source = VoltageSource("v", "a", "0")
        assert source.value(0.0) == 0.0


class TestCurrentSource:
    def test_injects_into_negative_node(self):
        ckt = Circuit("t")
        # 1 mA pulled from ground into node a through 1k to ground.
        ckt.add(CurrentSource("i", "0", "a", dc=1e-3))
        ckt.add(Resistor("r", "a", "0", 1e3))
        op = OperatingPoint(ckt).run()
        assert op["a"] == pytest.approx(1.0, rel=1e-6)

    def test_direction_flip(self):
        ckt = Circuit("t")
        ckt.add(CurrentSource("i", "a", "0", dc=1e-3))
        ckt.add(Resistor("r", "a", "0", 1e3))
        op = OperatingPoint(ckt).run()
        assert op["a"] == pytest.approx(-1.0, rel=1e-6)
