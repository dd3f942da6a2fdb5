"""Tests for the gate netlist and static-timing engine."""

import numpy as np
import pytest

from repro.core.libchar import (
    CellCharacterization, NldmTable, TimingArc,
)
from repro.errors import AnalysisError
from repro.sta import FALL, GateNetlist, RISE, StaEngine, TimingLibrary


def synthetic_cell(name: str, base_delay: float, inverting=True,
                   cap=1e-15) -> CellCharacterization:
    """Cell with delay = base + slew/10 + load * 1e5 (analytic)."""
    slews = np.asarray([10e-12, 200e-12])
    loads = np.asarray([0.5e-15, 8e-15])
    values = np.asarray([[base_delay + s / 10 + l * 1e5
                          for l in loads] for s in slews])
    transitions = np.asarray([[20e-12 + l * 1e5 for l in loads]
                              for s in slews])
    tables = dict(
        cell_rise=NldmTable(slews, loads, values),
        cell_fall=NldmTable(slews, loads, values * 1.2),
        rise_transition=NldmTable(slews, loads, transitions),
        fall_transition=NldmTable(slews, loads, transitions))
    return CellCharacterization(
        name=name, kind="synthetic", vddi=1.0, vddo=1.0,
        arc=TimingArc(**tables, inverting=inverting),
        input_capacitance=cap, slews=tuple(slews), loads=tuple(loads))


@pytest.fixture
def library():
    lib = TimingLibrary()
    lib.add("fast", synthetic_cell("fast", 10e-12))
    lib.add("slow", synthetic_cell("slow", 100e-12))
    lib.add("buf", synthetic_cell("buf", 20e-12, inverting=False))
    return lib


def chain(*cells) -> GateNetlist:
    nl = GateNetlist("chain")
    nl.add_primary_input("n0")
    for i, cell in enumerate(cells):
        nl.add_instance(f"u{i}", cell, f"n{i}", f"n{i + 1}")
    nl.add_primary_output(f"n{len(cells)}")
    return nl


class TestNetlistStructure:
    def test_duplicate_instance(self):
        nl = chain("fast")
        with pytest.raises(AnalysisError, match="duplicate"):
            nl.add_instance("u0", "fast", "x", "y")

    def test_multiple_drivers_rejected(self):
        nl = chain("fast")
        with pytest.raises(AnalysisError, match="already driven"):
            nl.add_instance("u9", "fast", "n0", "n1")

    def test_self_loop_rejected(self):
        nl = GateNetlist()
        with pytest.raises(AnalysisError):
            nl.add_instance("u0", "fast", "a", "a")

    def test_combinational_loop_detected(self):
        nl = GateNetlist()
        nl.add_primary_input("a")
        nl.add_instance("u0", "fast", "x", "y")
        nl.add_instance("u1", "fast", "y", "x")
        with pytest.raises(AnalysisError,
                           match=r"^combinational loop: u1 -> u0 -> u1$"):
            nl.validate()

    def test_undriven_net_detected(self):
        nl = GateNetlist()
        nl.add_primary_input("a")
        nl.add_instance("u0", "fast", "ghost", "y")
        with pytest.raises(AnalysisError, match="no"):
            nl.validate()

    def test_topological_order(self):
        nl = chain("fast", "fast", "fast")
        order = [inst.name for inst in nl.topological_instances()]
        assert order == ["u0", "u1", "u2"]

    def test_loads_and_driver(self):
        nl = chain("fast", "fast")
        assert nl.driver_of("n1").name == "u0"
        assert [x.name for x in nl.loads_of("n1")] == ["u1"]


class TestEngine:
    def test_chain_delay_additive(self, library):
        nl = chain("fast", "fast")
        report = StaEngine(nl, library).run(input_slew=10e-12)
        single = StaEngine(chain("fast"), library).run(
            input_slew=10e-12)
        assert report.worst_arrival > single.worst_arrival

    def test_critical_path_structure(self, library):
        nl = chain("fast", "slow", "fast")
        report = StaEngine(nl, library).run()
        assert [s.instance for s in report.critical_path] == \
            ["u0", "u1", "u2"]
        assert report.critical_path[-1].arrival == pytest.approx(
            report.worst_arrival)

    def test_slower_cell_dominates(self, library):
        fast = StaEngine(chain("fast"), library).run().worst_arrival
        slow = StaEngine(chain("slow"), library).run().worst_arrival
        assert slow > fast + 80e-12

    def test_fanout_increases_delay(self, library):
        light = GateNetlist()
        light.add_primary_input("a")
        light.add_instance("u0", "fast", "a", "y")
        light.add_primary_output("y")

        heavy = GateNetlist()
        heavy.add_primary_input("a")
        heavy.add_instance("u0", "fast", "a", "y")
        for i in range(6):
            heavy.add_instance(f"load{i}", "fast", "y", f"z{i}")
        heavy.add_primary_output("y")

        t_light = StaEngine(light, library).run().worst_arrival
        t_heavy = StaEngine(heavy, library).run().worst_arrival
        assert t_heavy > t_light

    def test_wire_cap_increases_delay(self, library):
        bare = chain("fast", "fast")
        loaded = chain("fast", "fast")
        loaded.set_wire_cap("n1", 5e-15)
        t0 = StaEngine(bare, library).run().worst_arrival
        t1 = StaEngine(loaded, library).run().worst_arrival
        assert t1 > t0

    def test_inverting_phase_tracking(self, library):
        report = StaEngine(chain("fast"), library).run()
        step = report.critical_path[0]
        assert step.input_phase != step.output_phase

    def test_buffer_keeps_phase(self, library):
        report = StaEngine(chain("buf"), library).run()
        step = report.critical_path[0]
        assert step.input_phase == step.output_phase

    def test_missing_cell_raises(self, library):
        nl = chain("ghost")
        with pytest.raises(AnalysisError, match="not in library"):
            StaEngine(nl, library).run()

    def test_pretty_report(self, library):
        text = StaEngine(chain("fast", "slow"), library).run().pretty()
        assert "Critical path" in text
        assert "u1" in text


class TestRealCells:
    def test_crossing_path_with_characterized_cells(self, pdk):
        # Slow (SPICE in the loop): a 0.8 V chain through the SS-TVS
        # into a 1.2 V chain.
        from repro.core.libchar import characterize_cell
        slews, loads = (20e-12, 150e-12), (0.5e-15, 4e-15)
        lib = TimingLibrary()
        lib.add("inv08", characterize_cell("inverter", pdk, 0.8, 0.8,
                                           slews=slews, loads=loads))
        lib.add("inv12", characterize_cell("inverter", pdk, 1.2, 1.2,
                                           slews=slews, loads=loads))
        lib.add("ls", characterize_cell("sstvs", pdk, 0.8, 1.2,
                                        slews=slews, loads=loads))
        nl = GateNetlist("crossing")
        nl.add_primary_input("a")
        nl.add_instance("u1", "inv08", "a", "n1")
        nl.add_instance("ls", "ls", "n1", "n2")
        nl.add_instance("u2", "inv12", "n2", "y")
        nl.add_primary_output("y")
        report = StaEngine(nl, lib).run(input_slew=50e-12)
        # The shifter dominates the path.
        shifter_step = [s for s in report.critical_path
                        if s.instance == "ls"][0]
        assert shifter_step.delay > max(
            s.delay for s in report.critical_path
            if s.instance != "ls")
        assert 50e-12 < report.worst_arrival < 2e-9
