"""Gate-level netlist model for the static-timing engine.

Instances are single-input, single-output cells (inverter-class gates
and the level shifters of this study); nets connect one driver to any
number of loads. This is deliberately the minimal structure needed to
time multi-voltage crossing paths — a driver chain, a level shifter at
the domain boundary, a receiver chain — with realistic fanout loading.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def validate(self) -> None:
        """Check the netlist is a drivable DAG."""
        self.topological_instances()

    def topological_instances(self) -> list[GateInstance]:
        """Instances in topological order, after checking the netlist
        is a drivable DAG.

        Kahn's algorithm over the instance graph (edges follow nets).
        A single-input cell has at most one driver, so its in-degree is
        0 or 1 and no edge repeats: the roots are the instances with an
        undriven input, in insertion order, and each instance's loads
        join the queue as soon as it is dequeued. That is the
        generation-by-generation order of networkx's
        ``topological_sort`` on the same graph.
        """
        if not self.primary_inputs:
            raise AnalysisError("netlist has no primary inputs")
        order = [inst for inst in self.instances.values()
                 if inst.input_net not in self._net_driver]
        for inst in order:          # the list is the queue
            order.extend(self._net_loads.get(inst.output_net, ()))
        if len(order) < len(self.instances):
            raise AnalysisError(f"combinational loop: {self._loop(order)}")
        for inst in self.instances.values():
            if (not self.is_primary_input(inst.input_net)
                    and self.driver_of(inst.input_net) is None):
                raise AnalysisError(
                    f"{inst.name}: input net {inst.input_net!r} has no "
                    "driver and is not a primary input")
        return order

    def _loop(self, reached) -> str:
        """One loop among the instances a topological sort never
        reached, as ``a -> b -> ... -> a``. Each of them is driven by
        another unreached instance, so walking drivers back from any
        of them closes a loop."""
        reached = {inst.name for inst in reached}
        inst = next(inst for inst in self.instances.values()
                    if inst.name not in reached)
        walk: dict[str, int] = {}
        while inst.name not in walk:
            walk[inst.name] = len(walk)
            inst = self._net_driver[inst.input_net]
        loop = list(walk)[walk[inst.name]:][::-1]
        return " -> ".join(loop + loop[:1])
