"""Structural Verilog subset: parse gate-level netlists.

Supports the subset produced by synthesis for this study's flows:

* one or more ``module ... endmodule`` blocks;
* ``input``, ``output``, ``wire`` declarations (scalar nets only);
* instantiations with named port connections::

      INVX1 u1 (.A(n1), .Y(n2));

* ``//`` line comments and ``/* */`` block comments.

The floorplanner's :func:`repro.floorplan.design.design_from_verilog`
turns a parsed module into a floorplan design.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import NetlistError

_IDENT = r"[A-Za-z_][A-Za-z0-9_$]*"
_MODULE_RE = re.compile(
    rf"module\s+({_IDENT})\s*\((.*?)\)\s*;(.*?)endmodule", re.DOTALL)
_DECL_RE = re.compile(
    rf"(input|output|wire)\s+(.*?);", re.DOTALL)
_INSTANCE_RE = re.compile(
    rf"({_IDENT})\s+({_IDENT})\s*\((.*?)\)\s*;", re.DOTALL)
_PORT_RE = re.compile(rf"\.({_IDENT})\s*\(\s*({_IDENT})\s*\)")


@dataclass
class VerilogInstance:
    cell: str
    name: str
    connections: dict   #: port -> net


@dataclass
class VerilogModule:
    name: str
    ports: list
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    wires: list = field(default_factory=list)
    instances: list = field(default_factory=list)

    def nets(self) -> set:
        nets = set(self.inputs) | set(self.outputs) | set(self.wires)
        for inst in self.instances:
            nets.update(inst.connections.values())
        return nets

    def validate(self) -> None:
        declared = (set(self.inputs) | set(self.outputs)
                    | set(self.wires))
        for inst in self.instances:
            for port, net in inst.connections.items():
                if net not in declared:
                    raise NetlistError(
                        f"{self.name}.{inst.name}: net {net!r} "
                        f"(port .{port}) is not declared")
        names = [inst.name for inst in self.instances]
        if len(set(names)) != len(names):
            dupes = {n for n in names if names.count(n) > 1}
            raise NetlistError(f"duplicate instance names: {dupes}")


def _strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    text = re.sub(r"//[^\n]*", " ", text)
    return text


def parse_verilog(text: str) -> dict[str, VerilogModule]:
    """Parse all modules in ``text``; returns name -> module."""
    clean = _strip_comments(text)
    modules: dict[str, VerilogModule] = {}
    matched_any = False
    for match in _MODULE_RE.finditer(clean):
        matched_any = True
        name = match.group(1)
        ports = [p.strip() for p in match.group(2).split(",")
                 if p.strip()]
        body = match.group(3)
        module = VerilogModule(name=name, ports=ports)

        consumed_spans = []
        for decl in _DECL_RE.finditer(body):
            decl_kind = decl.group(1)
            nets = [n.strip() for n in decl.group(2).split(",")
                    if n.strip()]
            for net in nets:
                if not re.fullmatch(_IDENT, net):
                    raise NetlistError(
                        f"{name}: bad net name {net!r} (vectors are "
                        "not supported)")
            getattr(module, decl_kind + "s" if decl_kind != "wire"
                    else "wires").extend(nets)
            consumed_spans.append(decl.span())

        remainder = list(body)
        for start, stop in consumed_spans:
            for i in range(start, stop):
                remainder[i] = " "
        remainder_text = "".join(remainder)

        for inst in _INSTANCE_RE.finditer(remainder_text):
            cell, inst_name, conn_text = inst.groups()
            connections = {}
            for port in _PORT_RE.finditer(conn_text):
                connections[port.group(1)] = port.group(2)
            if not connections:
                raise NetlistError(
                    f"{name}.{inst_name}: only named port connections "
                    "are supported")
            module.instances.append(
                VerilogInstance(cell=cell, name=inst_name,
                                connections=connections))
        module.validate()
        modules[name] = module
    if not matched_any:
        raise NetlistError("no module found in the Verilog source")
    return modules
