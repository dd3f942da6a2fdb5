"""Structural Verilog subset: parsing gate-level netlists."""

from repro.verilog.parser import VerilogInstance, VerilogModule, parse_verilog

__all__ = [
    "VerilogModule",
    "VerilogInstance",
    "parse_verilog",
]
