"""Gate-level netlist model for the static-timing engine.

Instances are single-input, single-output cells (inverter-class gates
and the level shifters of this study); nets connect one driver to any
number of loads. This is deliberately the minimal structure needed to
time multi-voltage crossing paths — a driver chain, a level shifter at
the domain boundary, a receiver chain — with realistic fanout loading.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.errors import AnalysisError


@dataclass(frozen=True)
class GateInstance:
    """One placed cell: ``output = cell(input)``."""

    name: str
    cell: str        #: cell name in the timing library
    input_net: str
    output_net: str

    def __post_init__(self):
        if self.input_net == self.output_net:
            raise AnalysisError(f"{self.name}: input and output nets "
                                "must differ (no self-loop cells)")


class GateNetlist:
    """A DAG of single-input cells with named nets."""

    def __init__(self, name: str = "netlist"):
        self.name = name
        self.instances: dict[str, GateInstance] = {}
        self.primary_inputs: list[str] = []
        self.primary_outputs: list[str] = []
        #: Extra wire capacitance per net [F].
        self.net_wire_cap: dict[str, float] = {}
        # Net indexes kept in lockstep with ``instances`` so fanout
        # and driver lookups stay O(1); SoC-scale crossing netlists
        # (thousands of instances) would otherwise make validation
        # and load computation quadratic.
        self._net_loads: dict[str, list] = {}
        self._net_driver: dict[str, GateInstance] = {}
        # Membership sets mirroring the ordered port lists.
        self._input_set: set[str] = set()
        self._output_set: set[str] = set()

    # -- construction -----------------------------------------------------

    def add_instance(self, name: str, cell: str, input_net: str,
                     output_net: str) -> GateInstance:
        if name in self.instances:
            raise AnalysisError(f"duplicate instance {name!r}")
        driver = self._net_driver.get(output_net)
        if driver is not None:
            raise AnalysisError(
                f"net {output_net!r} already driven by "
                f"{driver.name!r}")
        instance = GateInstance(name, cell, input_net, output_net)
        self.instances[name] = instance
        self._net_loads.setdefault(input_net, []).append(instance)
        self._net_driver[output_net] = instance
        return instance

    def add_primary_input(self, net: str) -> None:
        if net not in self._input_set:
            self._input_set.add(net)
            self.primary_inputs.append(net)

    def add_primary_output(self, net: str) -> None:
        if net not in self._output_set:
            self._output_set.add(net)
            self.primary_outputs.append(net)

    def set_wire_cap(self, net: str, capacitance: float) -> None:
        if capacitance < 0:
            raise AnalysisError("wire capacitance must be >= 0")
        self.net_wire_cap[net] = capacitance

    # -- structure ----------------------------------------------------------

    def loads_of(self, net: str) -> list[GateInstance]:
        return list(self._net_loads.get(net, ()))

    def driver_of(self, net: str) -> GateInstance | None:
        return self._net_driver.get(net)

    def is_primary_input(self, net: str) -> bool:
        return net in self._input_set

    def is_primary_output(self, net: str) -> bool:
        return net in self._output_set

    def graph(self) -> "nx.DiGraph":
        """Instance-level DAG (edges follow nets)."""
        g = nx.DiGraph()
        for inst in self.instances.values():
            g.add_node(inst.name)
        for inst in self.instances.values():
            for load in self.loads_of(inst.output_net):
                g.add_edge(inst.name, load.name, net=inst.output_net)
        return g

    def validate(self) -> None:
        """Check the netlist is a drivable DAG."""
        self._checked_order()

    def topological_instances(self) -> list[GateInstance]:
        return [self.instances[name] for name in self._checked_order()]

    def _checked_order(self) -> list[str]:
        """Instance names in topological order, after checking the
        netlist is a drivable DAG (one graph build, one sort)."""
        if not self.primary_inputs:
            raise AnalysisError("netlist has no primary inputs")
        graph = self.graph()
        try:
            order = list(nx.topological_sort(graph))
        except nx.NetworkXUnfeasible:
            cycle = nx.find_cycle(graph)
            raise AnalysisError(f"combinational loop: {cycle}") from None
        for inst in self.instances.values():
            if (not self.is_primary_input(inst.input_net)
                    and self.driver_of(inst.input_net) is None):
                raise AnalysisError(
                    f"{inst.name}: input net {inst.input_net!r} has no "
                    "driver and is not a primary input")
        return order
