"""Tests for DVS schedule generation."""

import pytest

from repro.errors import AnalysisError
from repro.soc.dvs import periodic_schedule


class TestPeriodicSchedule:
    def test_waveform_shape(self):
        sched = periodic_schedule(1.2, 0.8, period=10.0, duty=0.3,
                                  cycles=2)
        assert sched.voltage_at(1.0) == 1.2
        assert sched.voltage_at(5.0) == 0.8
        assert sched.voltage_at(11.0) == 1.2

    def test_bad_duty(self):
        with pytest.raises(AnalysisError):
            periodic_schedule(1.2, 0.8, 10.0, duty=1.5)

    def test_bad_period(self):
        with pytest.raises(AnalysisError):
            periodic_schedule(1.2, 0.8, 0.0)
