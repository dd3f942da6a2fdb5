"""Tests for STA slack/constraint reporting."""

import pytest

from repro.errors import AnalysisError
from repro.floorplan import (
    anneal_floorplan, assign_shifters, build_crossing_netlist,
    build_timing_library, generate_design,
)
from repro.sta import StaEngine, TimingLibrary
from tests.sta.test_sta import chain, synthetic_cell


@pytest.fixture
def report():
    lib = TimingLibrary()
    lib.add("fast", synthetic_cell("fast", 10e-12))
    return StaEngine(chain("fast", "fast"), lib).run()


class TestSlack:
    def test_met_constraint(self, report):
        assert report.meets(1e-9)
        assert report.slack(1e-9) > 0

    def test_violated_constraint(self, report):
        assert not report.meets(1e-12)
        assert report.slack(1e-12) < 0

    def test_slack_arithmetic(self, report):
        required = 500e-12
        assert report.slack(required) == pytest.approx(
            required - report.worst_arrival)

    def test_pretty_with_constraint(self, report):
        text = report.pretty(required=1e-9)
        assert "MET" in text
        text = report.pretty(required=1e-12)
        assert "VIOLATED" in text

    def test_output_arrival(self, report):
        assert report.output_arrival("n2") == pytest.approx(
            report.worst_arrival)

    def test_output_arrival_unknown_net(self, report):
        with pytest.raises(AnalysisError):
            report.output_arrival("nowhere")


@pytest.fixture(scope="module")
def crossings():
    """A placed SoC crossing netlist, its library and STA report."""
    design = generate_design(blocks=24, domains=3, seed=2)
    assignment = assign_shifters(design, "sstvs",
                                 characterize_leakage=False)
    result = anneal_floorplan(design, assignment, seed=0, moves=40)
    netlist, paths = build_crossing_netlist(design, assignment,
                                            result.positions)
    library = build_timing_library(design, assignment)
    report = StaEngine(netlist, library).run()
    return design, assignment, paths, report


class TestCrossingNetlistIndexes:
    def test_output_arrival_is_the_worst_phase_on_every_net(
            self, crossings):
        _, _, paths, report = crossings
        nets = {net for net, _ in report.arrivals}
        assert {path.output_net for path in paths} <= nets
        for net in nets:
            brute = max(point.arrival for (name, _), point
                        in report.arrivals.items() if name == net)
            assert report.output_arrival(net).hex() == brute.hex()

    def test_unknown_net_still_raises(self, crossings):
        *_, report = crossings
        with pytest.raises(AnalysisError, match="no arrival"):
            report.output_arrival("x_nowhere")

    def test_duplicate_ports_are_no_ops_that_keep_order(self,
                                                        crossings):
        design, assignment, _, _ = crossings
        netlist, _ = build_crossing_netlist(design, assignment)
        inputs = list(netlist.primary_inputs)
        outputs = list(netlist.primary_outputs)
        assert len(set(inputs)) == len(inputs) > 1
        netlist.add_primary_input(inputs[0])
        netlist.add_primary_input(inputs[-1])
        netlist.add_primary_output(outputs[0])
        assert netlist.primary_inputs == inputs
        assert netlist.primary_outputs == outputs
        assert netlist.is_primary_input(inputs[0])
        assert netlist.is_primary_output(outputs[-1])
        assert not netlist.is_primary_output(inputs[0])
