"""Arrival-time propagation over NLDM tables.

Classic single-corner static timing: each net carries, per phase
(rising or falling signal on that net), an arrival time and a slew.
Each instance looks up its delay and output transition from the
characterized tables at (input slew, output load), where the load is
the sum of fanin pin capacitances plus wire capacitance. Inverting
cells swap the phase. Critical paths are recovered by backtracing the
max-arrival contributors.

This is the timing half of the SoC story: the level shifter at a
domain boundary is just another library cell with an arc, so crossing
paths can be timed end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.libchar import CellCharacterization
from repro.errors import AnalysisError
from repro.sta.netlist import GateNetlist
from repro.units import format_eng

RISE = "rise"
FALL = "fall"


@dataclass(frozen=True)
class TimingPoint:
    """Arrival and slew of one phase on one net."""

    net: str
    phase: str
    arrival: float
    slew: float
    #: (instance name, input phase) that set this arrival, for traces.
    cause: Optional[tuple] = None


@dataclass
class PathStep:
    instance: str
    cell: str
    input_net: str
    output_net: str
    input_phase: str
    output_phase: str
    delay: float
    arrival: float

    def pretty(self) -> str:
        return (f"{self.instance:>12s} ({self.cell:>16s}) "
                f"{self.input_net}/{self.input_phase[0].upper()} -> "
                f"{self.output_net}/{self.output_phase[0].upper()}  "
                f"+{format_eng(self.delay, 's', 3):>8s}  "
                f"@{format_eng(self.arrival, 's', 3):>8s}")


@dataclass
class TimingReport:
    """Worst arrival per primary output plus the critical path."""

    arrivals: dict            #: (net, phase) -> TimingPoint
    critical_path: list       #: list[PathStep]
    worst_output: str
    worst_phase: str
    worst_arrival: float
    #: net -> worst arrival over its phases, built once from arrivals.
    net_arrivals: dict = field(init=False, repr=False)

    def __post_init__(self):
        worst: dict = {}
        for (net, _), point in self.arrivals.items():
            if net not in worst or point.arrival > worst[net]:
                worst[net] = point.arrival
        self.net_arrivals = worst

    def slack(self, required: float) -> float:
        """Setup slack against a required arrival time."""
        return required - self.worst_arrival

    def meets(self, required: float) -> bool:
        return self.slack(required) >= 0.0

    def output_arrival(self, net: str) -> float:
        """Worst arrival (either phase) at one net."""
        try:
            return self.net_arrivals[net]
        except KeyError:
            raise AnalysisError(
                f"no arrival recorded at {net!r}") from None

    def pretty(self, required: float | None = None) -> str:
        lines = [f"Critical path to {self.worst_output} "
                 f"({self.worst_phase}), arrival "
                 f"{format_eng(self.worst_arrival, 's', 4)}:"]
        lines += ["  " + step.pretty() for step in self.critical_path]
        if required is not None:
            slack = self.slack(required)
            verdict = "MET" if slack >= 0 else "VIOLATED"
            lines.append(f"  required {format_eng(required, 's', 4)}: "
                         f"slack {format_eng(slack, 's', 4)} "
                         f"[{verdict}]")
        return "\n".join(lines)


class TimingLibrary:
    """Named collection of characterized cells."""

    def __init__(self):
        self.cells: dict[str, CellCharacterization] = {}

    def add(self, name: str, cell: CellCharacterization) -> None:
        self.cells[name] = cell

    def cell(self, name: str) -> CellCharacterization:
        try:
            return self.cells[name]
        except KeyError:
            raise AnalysisError(f"cell {name!r} not in library "
                                f"(have {sorted(self.cells)})") from None

    def input_capacitance(self, name: str) -> float:
        return self.cell(name).input_capacitance


class StaEngine:
    """Propagate arrivals through a :class:`GateNetlist`.

    Example::

        engine = StaEngine(netlist, library)
        report = engine.run(input_slew=50e-12)
        print(report.pretty())
    """

    def __init__(self, netlist: GateNetlist, library: TimingLibrary,
                 output_load: float = 1e-15):
        self.netlist = netlist
        self.library = library
        #: Capacitance on primary outputs [F].
        self.output_load = output_load

    # -- loading -----------------------------------------------------------

    def net_load(self, net: str) -> float:
        load = self.netlist.net_wire_cap.get(net, 0.0)
        for sink in self.netlist.loads_of(net):
            load += self.library.input_capacitance(sink.cell)
        if self.netlist.is_primary_output(net):
            load += self.output_load
        return load

    # -- propagation ------------------------------------------------------

    def run(self, input_slew: float = 50e-12,
            input_arrival: float = 0.0) -> TimingReport:
        netlist = self.netlist
        arrivals: dict = {}
        for net in netlist.primary_inputs:
            for phase in (RISE, FALL):
                arrivals[(net, phase)] = TimingPoint(
                    net, phase, input_arrival, input_slew)

        for inst in netlist.topological_instances():
            cell = self.library.cell(inst.cell)
            load = self.net_load(inst.output_net)
            for in_phase in (RISE, FALL):
                point = arrivals.get((inst.input_net, in_phase))
                if point is None:
                    continue
                out_phase, delay, out_slew = self._arc(
                    cell, in_phase, point.slew, load)
                arrival = point.arrival + delay
                key = (inst.output_net, out_phase)
                existing = arrivals.get(key)
                if existing is None or arrival > existing.arrival:
                    arrivals[key] = TimingPoint(
                        inst.output_net, out_phase, arrival, out_slew,
                        cause=(inst.name, in_phase))

        return self._report(arrivals)

    @staticmethod
    def _arc(cell: CellCharacterization, in_phase: str, slew: float,
             load: float):
        arc = cell.arc
        out_phase = ({RISE: FALL, FALL: RISE}[in_phase]
                     if arc.inverting else in_phase)
        if out_phase == RISE:
            delay = arc.cell_rise.lookup(slew, load)
            out_slew = arc.rise_transition.lookup(slew, load)
        else:
            delay = arc.cell_fall.lookup(slew, load)
            out_slew = arc.fall_transition.lookup(slew, load)
        return out_phase, delay, out_slew

    # -- reporting --------------------------------------------------------

    def _report(self, arrivals: dict) -> TimingReport:
        netlist = self.netlist
        outputs = netlist.primary_outputs or [
            inst.output_net for inst in netlist.instances.values()
            if not netlist.loads_of(inst.output_net)]
        if not outputs:
            raise AnalysisError("netlist has no outputs to report")
        worst = None
        for net in outputs:
            for phase in (RISE, FALL):
                point = arrivals.get((net, phase))
                if point is not None and (worst is None
                                          or point.arrival > worst.arrival):
                    worst = point
        if worst is None:
            raise AnalysisError("no arrival reached any output — check "
                                "connectivity")

        # Backtrace the critical path.
        path: list[PathStep] = []
        point = worst
        while point.cause is not None:
            inst_name, in_phase = point.cause
            inst = self.netlist.instances[inst_name]
            upstream = arrivals[(inst.input_net, in_phase)]
            path.append(PathStep(
                instance=inst.name, cell=inst.cell,
                input_net=inst.input_net, output_net=inst.output_net,
                input_phase=in_phase, output_phase=point.phase,
                delay=point.arrival - upstream.arrival,
                arrival=point.arrival))
            point = upstream
        path.reverse()
        return TimingReport(arrivals=arrivals, critical_path=path,
                            worst_output=worst.net,
                            worst_phase=worst.phase,
                            worst_arrival=worst.arrival)
