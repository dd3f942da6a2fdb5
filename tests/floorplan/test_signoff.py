"""Differential STA sign-off tests: the negative controls.

A sign-off gate that can only say MET is worthless. These tests
perturb a passing floorplan in ways that *must* flip the verdict —
slowing the shifter arc past the budget, deleting the shifter, wiring
around it — and fail if the gate doesn't notice.
"""

import pytest

from repro.errors import AnalysisError
from repro.floorplan import (
    anneal_floorplan, assign_shifters, build_crossing_netlist,
    build_timing_library, derated_characterization, generate_design,
    signoff_floorplan, synthetic_characterization,
    verify_crossing_paths,
)
from repro.sta import GateNetlist, TimingLibrary

pytestmark = pytest.mark.floorplan

REQUIRED = 2e-9


def _derated_library(library, factor, only=None):
    """Copy a library, scaling the arcs of ``only`` (or all) cells."""
    out = TimingLibrary()
    for name, cell in library.cells.items():
        if only is None or name in only:
            cell = derated_characterization(cell, factor)
        out.add(name, cell)
    return out


def _rebuilt(netlist, rewire):
    """Rebuild a netlist, applying ``name -> (cell, in, out)`` edits.

    Mutating ``instances`` directly would desynchronize the O(1)
    driver/fanout indexes; real callers always construct netlists
    through add_instance, so the negative controls do too.
    """
    out = GateNetlist(netlist.name)
    for inst in netlist.instances.values():
        cell, input_net, output_net = (inst.cell, inst.input_net,
                                       inst.output_net)
        if inst.name in rewire:
            cell, input_net, output_net = rewire[inst.name](inst)
        out.add_instance(inst.name, cell, input_net, output_net)
    for net in netlist.primary_inputs:
        out.add_primary_input(net)
    for net in netlist.primary_outputs:
        out.add_primary_output(net)
    for net, cap in netlist.net_wire_cap.items():
        out.set_wire_cap(net, cap)
    return out


@pytest.fixture(scope="module")
def floorplan():
    design = generate_design(blocks=10, domains=3, seed=4)
    assignment = assign_shifters(design, "sstvs",
                                 characterize_leakage=False)
    result = anneal_floorplan(design, assignment, seed=0, moves=200)
    netlist, paths = build_crossing_netlist(design, assignment,
                                            result.positions)
    library = build_timing_library(design, assignment)
    return design, assignment, netlist, paths, library


class TestPositiveControl:
    def test_nominal_floorplan_signs_off(self, floorplan):
        _, _, netlist, paths, library = floorplan
        report = signoff_floorplan(netlist, paths, library, REQUIRED)
        assert report.ok
        assert report.violations == ()
        assert report.worst_slack > 0.0
        assert len(report.arrivals) == len(paths)

    def test_summary_mentions_verdict(self, floorplan):
        _, _, netlist, paths, library = floorplan
        report = signoff_floorplan(netlist, paths, library, REQUIRED)
        assert "MET" in report.summary()

    def test_design_without_crossings_signs_off(self):
        design = generate_design(blocks=4, domains=2, seed=0)
        assignment = assign_shifters(design, "sstvs",
                                     characterize_leakage=False)
        assert assignment.crossings == ()
        netlist, paths = build_crossing_netlist(design, assignment)
        report = signoff_floorplan(netlist, paths,
                                   build_timing_library(design, assignment),
                                   REQUIRED)
        assert report.ok and report.violations == ()
        assert report.arrivals == {} and report.worst_path is None

    @pytest.mark.parametrize("required", [float("nan"), float("inf"),
                                          float("-inf")])
    def test_non_finite_required_rejected(self, floorplan, required):
        _, _, netlist, paths, library = floorplan
        with pytest.raises(AnalysisError, match="required"):
            signoff_floorplan(netlist, paths, library, required)


class TestSlowedArcFlipsVerdict:
    def test_derated_shifter_becomes_a_reported_violation(
            self, floorplan):
        """Scaling only the shifter arcs past the budget must flip the
        verdict AND localize the violations to crossing paths."""
        _, _, netlist, paths, library = floorplan
        shifter_cells = {p.shifter_cell for p in paths}
        factor = REQUIRED / 50e-12  # guarantees the budget is blown
        slowed = _derated_library(library, factor, only=shifter_cells)
        report = signoff_floorplan(netlist, paths, slowed, REQUIRED)
        assert not report.ok
        assert report.violations
        assert report.worst_slack < 0.0
        assert report.worst_path in paths
        assert "VIOLATED" in report.summary()

    def test_mild_derating_keeps_the_slack_ordering(self, floorplan):
        _, _, netlist, paths, library = floorplan
        nominal = signoff_floorplan(netlist, paths, library, REQUIRED)
        slowed = _derated_library(library, 1.5)
        derated = signoff_floorplan(netlist, paths, slowed, REQUIRED)
        assert derated.worst_slack < nominal.worst_slack


class TestStructuralNegativeControls:
    def test_missing_shifter_instance_rejected(self, floorplan):
        """A netlist that simply drops a required shifter must be
        rejected structurally, before any timing is run."""
        _, _, netlist, paths, _ = floorplan
        victim = paths[0]
        stripped = GateNetlist(netlist.name)
        for inst in netlist.instances.values():
            if inst.name != victim.shifter_instance:
                stripped.add_instance(inst.name, inst.cell,
                                      inst.input_net, inst.output_net)
        with pytest.raises(AnalysisError, match="shifter"):
            verify_crossing_paths(stripped, paths)

    def test_bypassed_shifter_rejected(self, floorplan):
        """Rewiring the receiver to the shifter's *input* net — the
        classic missing-level-shifter bug — must be caught even though
        the shifter instance itself is still present."""
        _, _, netlist, paths, _ = floorplan
        victim = paths[0]
        rx_name = victim.shifter_instance.replace("_ls", "_rx")
        bypassed = _rebuilt(netlist, {
            rx_name: lambda inst: (inst.cell, victim.input_net,
                                   inst.output_net)})
        assert victim.shifter_instance in bypassed.instances
        with pytest.raises(AnalysisError, match="bypass"):
            verify_crossing_paths(bypassed, paths)

    def test_wrong_cell_on_the_shifter_rejected(self, floorplan):
        _, _, netlist, paths, _ = floorplan
        victim = paths[0]
        retyped = _rebuilt(netlist, {
            victim.shifter_instance:
                lambda inst: ("inv@1.0", inst.input_net,
                              inst.output_net)})
        with pytest.raises(AnalysisError, match="shifter"):
            verify_crossing_paths(retyped, paths)


class TestWireLoading:
    def test_longer_wires_arrive_later(self):
        """Placement feeds timing: the same design signed off at a
        spread-out placement must be slower than at a compact one."""
        design = generate_design(blocks=6, domains=3, seed=1)
        assignment = assign_shifters(design, "sstvs",
                                     characterize_leakage=False)
        compact = {m.name: (0.0, 0.0, m.width, m.height)
                   for m in design.modules}
        spread = {m.name: (5000.0 * i, 5000.0 * i, m.width, m.height)
                  for i, m in enumerate(design.modules)}
        library = build_timing_library(design, assignment)
        reports = []
        for positions in (compact, spread):
            netlist, paths = build_crossing_netlist(design, assignment,
                                                    positions)
            reports.append(signoff_floorplan(netlist, paths, library,
                                             REQUIRED))
        assert reports[1].worst_slack < reports[0].worst_slack


class TestSyntheticTables:
    def test_synthetic_characterization_is_monotone_in_drive(self):
        fast = synthetic_characterization("x", "sstvs", 1.4, 1.4)
        slow = synthetic_characterization("x", "sstvs", 0.8, 0.8)
        assert (slow.arc.cell_rise.values >
                fast.arc.cell_rise.values).all()

    def test_derating_scales_all_tables(self):
        cell = synthetic_characterization("x", "sstvs", 1.0, 1.2)
        derated = derated_characterization(cell, 2.0)
        assert (derated.arc.cell_rise.values
                == 2.0 * cell.arc.cell_rise.values).all()
        assert (derated.arc.fall_transition.values
                == 2.0 * cell.arc.fall_transition.values).all()
        assert derated.input_capacitance == cell.input_capacitance
