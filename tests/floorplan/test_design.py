"""Tests of the multi-voltage design layer: the synthetic generator
and the structural-Verilog bridge."""

import pytest

from repro.errors import AnalysisError
from repro.floorplan import SocDesign, design_from_verilog, generate_design
from repro.verilog import parse_verilog

pytestmark = pytest.mark.floorplan


VERILOG = """
module soc_top (input clk, output out);
  input clk;
  output out;
  wire n1, n2;
  core u_core (.A(clk), .Y(n1));
  dsp u_dsp (.A(n1), .Y(n2));
  io u_io (.A(n2), .Y(out));
endmodule
"""


class TestGenerator:
    def test_same_seed_same_design(self):
        a = generate_design(blocks=40, domains=4, seed=7)
        b = generate_design(blocks=40, domains=4, seed=7)
        assert a == b  # frozen dataclasses compare by value

    def test_different_seeds_differ(self):
        a = generate_design(blocks=40, domains=4, seed=7)
        b = generate_design(blocks=40, domains=4, seed=8)
        assert a != b

    def test_block_and_domain_counts(self):
        design = generate_design(blocks=33, domains=5, seed=0)
        assert len(design.modules) == 33
        assert len(design.domains()) == 5

    def test_connected_and_crossing_factor(self):
        design = generate_design(blocks=50, domains=4, seed=1,
                                 crossing_factor=2.0)
        assert len(design.nets) == 100
        # The spanning-arborescence backbone touches every block: the
        # first blocks-1 nets each pair a block with an earlier one.
        touched = set()
        for net in design.nets[:49]:
            touched.add(net.source)
            touched.add(net.destination)
        assert len(touched) == 50

    def test_domain_crossings_subset(self):
        design = generate_design(blocks=30, domains=3, seed=2)
        modules = design.module_map()
        for net in design.domain_crossings():
            src = modules[net.source].domain.name
            dst = modules[net.destination].domain.name
            assert src != dst

    def test_single_domain_rejected(self):
        with pytest.raises(AnalysisError):
            generate_design(blocks=20, domains=1, seed=0)

    def test_dvs_fraction_yields_scheduled_domains(self):
        design = generate_design(blocks=20, domains=4, seed=0,
                                 dvs_fraction=0.5)
        swinging = [d for d in design.domains().values()
                    if d.schedule.min_voltage != d.schedule.max_voltage]
        assert len(swinging) == 2


class TestValidation:
    def test_duplicate_block_names_rejected(self):
        design = generate_design(blocks=4, domains=2, seed=0)
        with pytest.raises(AnalysisError):
            SocDesign(design.name,
                      (design.modules[0],) + design.modules[1:3]
                      + (design.modules[0],), design.nets[:1])

    def test_unknown_net_endpoint_rejected(self):
        design = generate_design(blocks=4, domains=2, seed=0)
        bad = design.nets[0].__class__("b0000", "nowhere", 1)
        with pytest.raises(AnalysisError):
            SocDesign(design.name, design.modules, (bad,))


class TestVerilogBridge:
    def bridge(self):
        modules = parse_verilog(VERILOG)
        return design_from_verilog(
            modules["soc_top"],
            {"u_core": "lo", "u_dsp": "hi", "u_io": "lo"},
            {"lo": 0.8, "hi": 1.2})

    def test_blocks_from_instances(self):
        design = self.bridge()
        assert sorted(m.name for m in design.modules) == \
            ["u_core", "u_dsp", "u_io"]

    def test_arcs_follow_nets(self):
        design = self.bridge()
        arcs = {(n.source, n.destination) for n in design.nets}
        assert ("u_core", "u_dsp") in arcs
        assert ("u_dsp", "u_io") in arcs

    def test_all_arcs_cross_domains_here(self):
        design = self.bridge()
        assert len(design.domain_crossings()) == len(design.nets)

    def test_unassigned_instance_rejected(self):
        modules = parse_verilog(VERILOG)
        with pytest.raises(AnalysisError):
            design_from_verilog(modules["soc_top"],
                                {"u_core": "lo"}, {"lo": 0.8})

    def test_unknown_domain_rejected(self):
        modules = parse_verilog(VERILOG)
        with pytest.raises(AnalysisError):
            design_from_verilog(
                modules["soc_top"],
                {"u_core": "lo", "u_dsp": "ghost", "u_io": "lo"},
                {"lo": 0.8})
