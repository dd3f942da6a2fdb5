"""STA sign-off of a floorplan's domain-crossing paths.

Every candidate floorplan is gated through :mod:`repro.sta`: each
domain crossing becomes a three-stage path — a driver inverter in the
source domain, the assigned level shifter at the destination boundary,
a receiver inverter in the destination domain — and the crossing wire
picks up capacitance proportional to the *placed* Manhattan distance
between the two blocks, so the annealer's placement directly moves
arrival times. Sign-off fails a floorplan when any crossing path
misses the required arrival, and *rejects* one whose netlist lost a
required shifter (a crossing wired straight across the boundary), so
timing and electrical legality gate acceptance rather than decorate
it.

Timing libraries come in two flavours:

* ``mode="spice"`` — NLDM tables from
  :func:`repro.core.libchar.characterize_cell` (cache-aware, real
  transistor arcs);
* ``mode="synthetic"`` — analytic linear-in-(slew, load) tables
  derived from each registered cell's device count and supplies.
  Bilinear NLDM interpolation reproduces a linear model exactly, so
  synthetic sign-off is deterministic, SPICE-free, and fast enough
  for thousand-block campaigns and golden pinning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.cells.registry import get_cell
from repro.core.libchar import (
    CellCharacterization, NldmTable, TimingArc,
)
from repro.errors import AnalysisError
from repro.floorplan.assign import ShifterAssignment
from repro.floorplan.design import SocDesign
from repro.sta import GateNetlist, StaEngine, TimingLibrary

#: Crossing-wire capacitance per routed micron [F/um].
WIRE_CAP_PER_UM = 0.02e-15

#: Synthetic-table axes; wide enough that long-wire loads interpolate
#: rather than clamp.
SYNTHETIC_SLEWS = (10e-12, 400e-12)
SYNTHETIC_LOADS = (0.5e-15, 400e-15)


@dataclass(frozen=True)
class CrossingPath:
    """The timed three-stage path of one domain crossing."""

    index: int
    source: str
    destination: str
    shifter_cell: str        #: library cell name of the shifter stage
    shifter_instance: str
    input_net: str
    crossing_net: str        #: the placed long wire (source -> shifter)
    output_net: str


@dataclass
class SignoffReport:
    """Pass/fail verdict of one floorplan's crossing paths."""

    ok: bool
    required: float
    worst_slack: float
    worst_path: CrossingPath | None
    violations: tuple        #: tuple[(CrossingPath, arrival, slack)]
    arrivals: dict           #: crossing index -> arrival [s]

    def summary(self) -> str:
        verdict = "MET" if self.ok else "VIOLATED"
        return (f"signoff {verdict}: {len(self.arrivals)} crossing "
                f"paths, worst slack {self.worst_slack * 1e12:+.1f} ps"
                + (f", {len(self.violations)} violation(s)"
                   if self.violations else ""))


def _domain_voltage(domain) -> float:
    return domain.schedule.voltage_at(0.0)


def inverter_cell_name(domain_name: str) -> str:
    return f"inv@{domain_name}"


def shifter_cell_name(kind: str, src_domain: str,
                      dst_domain: str) -> str:
    return f"{kind}@{src_domain}>{dst_domain}"


def synthetic_characterization(name: str, kind: str, vddi: float,
                               vddo: float) -> CellCharacterization:
    """Analytic NLDM stand-in for one registered cell.

    Delay grows with the registered device count and shrinks with
    drive supply; rise/fall and the transition tables follow the same
    linear-in-(slew, load) law, so bilinear lookups are exact and the
    tables are bitwise-stable for golden pinning.
    """
    spec = get_cell(kind)
    devices = max(spec.device_count, 2)
    drive = max(vddi, 0.4)
    base = 12e-12 * (1.0 + devices / 8.0) / drive
    slew_gain = 1.0 / 8.0
    load_gain = 5e3 / drive           #: ~5 ps per fF at 1 V
    slews = np.asarray(SYNTHETIC_SLEWS)
    loads = np.asarray(SYNTHETIC_LOADS)
    delay = np.asarray([[base + s * slew_gain + l * load_gain
                         for l in loads] for s in slews])
    transition = np.asarray([[15e-12 + s * 0.1 + l * 2e3
                              for l in loads] for s in slews])
    tables = dict(
        cell_rise=NldmTable(slews, loads, delay),
        cell_fall=NldmTable(slews, loads, delay * 1.1),
        rise_transition=NldmTable(slews, loads, transition),
        fall_transition=NldmTable(slews, loads, transition))
    return CellCharacterization(
        name=name, kind=kind, vddi=vddi, vddo=vddo,
        arc=TimingArc(**tables, inverting=spec.inverting),
        input_capacitance=0.4e-15 * (1.0 + devices / 10.0),
        slews=tuple(slews), loads=tuple(loads))


def derated_characterization(cell: CellCharacterization,
                             factor: float) -> CellCharacterization:
    """The same cell with every delay/transition table scaled.

    The differential negative control slows a shifter arc through
    here; it is also how a pessimism factor would be applied.
    """
    if factor <= 0:
        raise AnalysisError("derating factor must be positive")
    arc = cell.arc
    scaled = {key: NldmTable(table.slews, table.loads,
                             table.values * factor)
              for key, table in (("cell_rise", arc.cell_rise),
                                 ("cell_fall", arc.cell_fall),
                                 ("rise_transition", arc.rise_transition),
                                 ("fall_transition", arc.fall_transition))}
    return replace(cell, arc=TimingArc(**scaled,
                                       inverting=arc.inverting))


def build_timing_library(design: SocDesign,
                         assignment: ShifterAssignment,
                         pdk=None, mode: str = "synthetic",
                         cache=None,
                         slews=(20e-12, 150e-12),
                         loads=(0.5e-15, 4e-15)) -> TimingLibrary:
    """Characterize every cell the crossing netlist instantiates.

    One inverter per domain (driver/receiver at that domain's supply)
    plus the assigned shifter per crossed domain pair.
    """
    if mode not in ("synthetic", "spice"):
        raise AnalysisError(f"unknown timing mode {mode!r}")
    if mode == "spice" and pdk is None:
        from repro.pdk import Pdk
        pdk = Pdk()
    library = TimingLibrary()

    def _characterize(name, kind, vddi, vddo):
        if mode == "synthetic":
            cell = synthetic_characterization(name, kind, vddi, vddo)
        else:
            from repro.core.libchar import characterize_cell
            cell = characterize_cell(kind, pdk, vddi, vddo,
                                     slews=slews, loads=loads,
                                     cache=cache)
        library.add(name, cell)

    for domain_name, domain in design.domains().items():
        supply = _domain_voltage(domain)
        _characterize(inverter_cell_name(domain_name), "inverter",
                      supply, supply)
    by_name = design.module_map()
    seen = set()
    for crossing in assignment.crossings:
        src = by_name[crossing.source].domain
        dst = by_name[crossing.destination].domain
        name = shifter_cell_name(crossing.cell, src.name, dst.name)
        if name in seen:
            continue
        seen.add(name)
        _characterize(name, crossing.cell, crossing.vddi,
                      crossing.vddo)
    return library


def build_crossing_netlist(design: SocDesign,
                           assignment: ShifterAssignment,
                           positions: dict | None = None,
                           cap_per_um: float = WIRE_CAP_PER_UM):
    """(netlist, paths) timing every assigned crossing end-to-end.

    Crossing ``k`` becomes ``x{k}i -> drv -> x{k}s -> shifter ->
    x{k}d -> rx -> x{k}o``; with ``positions`` the source-to-shifter
    wire ``x{k}s`` carries ``distance * cap_per_um`` of capacitance,
    tying sign-off to the annealed placement.
    """
    by_name = design.module_map()
    netlist = GateNetlist(f"{design.name}-crossings")
    paths = []
    for index, crossing in enumerate(assignment.crossings):
        src = by_name[crossing.source].domain
        dst = by_name[crossing.destination].domain
        nets = tuple(f"x{index}{tag}" for tag in "isdo")
        in_net, src_net, dst_net, out_net = nets
        netlist.add_primary_input(in_net)
        netlist.add_primary_output(out_net)
        shifter = shifter_cell_name(crossing.cell, src.name, dst.name)
        netlist.add_instance(f"u{index}_drv",
                             inverter_cell_name(src.name),
                             in_net, src_net)
        netlist.add_instance(f"u{index}_ls", shifter, src_net, dst_net)
        netlist.add_instance(f"u{index}_rx",
                             inverter_cell_name(dst.name),
                             dst_net, out_net)
        if positions is not None:
            sx, sy, sw, sh = positions[crossing.source]
            dx, dy, dw, dh = positions[crossing.destination]
            distance = (abs((sx + sw / 2) - (dx + dw / 2))
                        + abs((sy + sh / 2) - (dy + dh / 2)))
            netlist.set_wire_cap(src_net, distance * cap_per_um)
        paths.append(CrossingPath(
            index=index, source=crossing.source,
            destination=crossing.destination, shifter_cell=shifter,
            shifter_instance=f"u{index}_ls", input_net=in_net,
            crossing_net=src_net, output_net=out_net))
    return netlist, tuple(paths)


def verify_crossing_paths(netlist: GateNetlist, paths) -> None:
    """Reject a netlist whose crossings lost their required shifter.

    Walks each crossing path backwards from its output net and demands
    the assigned shifter instance, with the assigned cell, on the way
    to the input net. A crossing wired straight across the domain
    boundary — or through a renamed/retyped instance — raises
    :class:`AnalysisError` before any timing is reported.
    """
    for path in paths:
        instance = netlist.instances.get(path.shifter_instance)
        if instance is None or instance.cell != path.shifter_cell:
            raise AnalysisError(
                f"crossing {path.source}->{path.destination}: required "
                f"shifter {path.shifter_instance!r} "
                f"({path.shifter_cell}) is missing from the netlist")
        net = path.output_net
        through_shifter = False
        hops = 0
        while net != path.input_net:
            driver = netlist.driver_of(net)
            if driver is None:
                raise AnalysisError(
                    f"crossing {path.source}->{path.destination}: net "
                    f"{net!r} is undriven on the crossing path")
            if driver.name == path.shifter_instance:
                through_shifter = True
            net = driver.input_net
            hops += 1
            if hops > len(netlist.instances):
                raise AnalysisError("crossing path does not reach its "
                                    "input (cycle?)")
        if not through_shifter:
            raise AnalysisError(
                f"crossing {path.source}->{path.destination}: path "
                f"bypasses the required level shifter "
                f"{path.shifter_instance!r}")


def signoff_floorplan(netlist: GateNetlist, paths,
                      library: TimingLibrary, required: float,
                      input_slew: float = 50e-12,
                      output_load: float = 1e-15) -> SignoffReport:
    """Time every crossing path and gate it against ``required``.

    Electrical legality first (:func:`verify_crossing_paths`), then a
    single STA pass; every path's worst arrival is compared against
    the required time and all misses are reported as violations. A
    design without domain crossings has an empty netlist and passes
    with no paths timed.
    """
    if not math.isfinite(required):
        raise AnalysisError(f"required arrival must be finite, got "
                            f"{required!r}")
    verify_crossing_paths(netlist, paths)
    if not netlist.instances:
        return SignoffReport(ok=True, required=required,
                             worst_slack=float("inf"), worst_path=None,
                             violations=(), arrivals={})
    engine = StaEngine(netlist, library, output_load=output_load)
    report = engine.run(input_slew=input_slew)
    arrivals = {}
    violations = []
    worst_slack = float("inf")
    worst_path = None
    for path in paths:
        arrival = report.output_arrival(path.output_net)
        arrivals[path.index] = arrival
        slack = required - arrival
        if slack < worst_slack:
            worst_slack = slack
            worst_path = path
        if slack < 0.0:
            violations.append((path, arrival, slack))
    return SignoffReport(ok=not violations, required=required,
                         worst_slack=worst_slack, worst_path=worst_path,
                         violations=tuple(violations),
                         arrivals=arrivals)
