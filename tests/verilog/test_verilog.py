"""Tests for the structural Verilog subset parser."""

import pytest

from repro.errors import NetlistError
from repro.verilog import parse_verilog

SIMPLE = """
// two-inverter buffer
module buf2 (a, y);
  input a;
  output y;
  wire n1;

  INVX1 u1 (.A(a), .Y(n1));
  INVX1 u2 (.A(n1), .Y(y));
endmodule
"""


class TestParsing:
    def test_module_structure(self):
        modules = parse_verilog(SIMPLE)
        assert set(modules) == {"buf2"}
        module = modules["buf2"]
        assert module.ports == ["a", "y"]
        assert module.inputs == ["a"]
        assert module.outputs == ["y"]
        assert module.wires == ["n1"]
        assert len(module.instances) == 2

    def test_connections(self):
        module = parse_verilog(SIMPLE)["buf2"]
        u1 = module.instances[0]
        assert u1.cell == "INVX1"
        assert u1.connections == {"A": "a", "Y": "n1"}

    def test_block_comments_stripped(self):
        text = SIMPLE.replace("// two-inverter buffer",
                              "/* block\ncomment */")
        assert "buf2" in parse_verilog(text)

    def test_multiple_modules(self):
        text = SIMPLE + SIMPLE.replace("buf2", "buf2_copy")
        modules = parse_verilog(text)
        assert set(modules) == {"buf2", "buf2_copy"}

    def test_multi_net_declaration(self):
        text = """
module m (a, y);
  input a;
  output y;
  wire n1, n2, n3;
  INVX1 u1 (.A(a), .Y(n1));
  INVX1 u2 (.A(n1), .Y(n2));
  INVX1 u3 (.A(n2), .Y(n3));
  INVX1 u4 (.A(n3), .Y(y));
endmodule
"""
        module = parse_verilog(text)["m"]
        assert module.wires == ["n1", "n2", "n3"]

    def test_undeclared_net_rejected(self):
        text = """
module m (a, y);
  input a;
  output y;
  INVX1 u1 (.A(a), .Y(ghost));
endmodule
"""
        with pytest.raises(NetlistError, match="not declared"):
            parse_verilog(text)

    def test_duplicate_instances_rejected(self):
        text = """
module m (a, y);
  input a;
  output y;
  INVX1 u1 (.A(a), .Y(y));
  INVX1 u1 (.A(a), .Y(y));
endmodule
"""
        with pytest.raises(NetlistError, match="duplicate"):
            parse_verilog(text)

    def test_positional_ports_rejected(self):
        text = """
module m (a, y);
  input a;
  output y;
  INVX1 u1 (a, y);
endmodule
"""
        with pytest.raises(NetlistError, match="named port"):
            parse_verilog(text)

    def test_vectors_rejected(self):
        text = """
module m (a, y);
  input a;
  output y;
  wire bus[3:0];
  INVX1 u1 (.A(a), .Y(y));
endmodule
"""
        with pytest.raises(NetlistError):
            parse_verilog(text)

    def test_empty_source_rejected(self):
        with pytest.raises(NetlistError, match="no module"):
            parse_verilog("wire x;")
