"""Multi-voltage SoC designs the floorplanner operates on.

A :class:`SocDesign` is a bag of voltage-island blocks (reusing the
:class:`repro.soc.domain.Module` model, positions ignored) plus the
directed inter-block nets; the fixed-placement :class:`repro.soc.Soc`
wraps one and keeps its modules' positions. Nets whose endpoints sit
in different voltage domains are *domain crossings* and must receive
a level shifter; same-domain nets only contribute wirelength.

Two front doors produce designs:

* :func:`generate_design` — a seeded synthetic generator scaling to
  thousands of blocks, with DVS schedules on a configurable fraction
  of domains so the paper's bidirectional-shift scenario is always
  represented;
* :func:`design_from_verilog` — the structural-Verilog bridge: every
  instance of a parsed :class:`repro.verilog.VerilogModule` becomes a
  block, and every driver-to-load net arc between blocks of different
  domains becomes a crossing.

Both are plain frozen data, picklable and canonicalizable, so designs
travel through the experiment engine's process pool and content-
addressed cache keys unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.soc.domain import Crossing, Module, VoltageDomain
from repro.soc.dvs import DEFAULT_LADDER, periodic_schedule

#: Synthetic block edge lengths [um] (log-uniform between these).
MIN_BLOCK_EDGE = 40.0
MAX_BLOCK_EDGE = 160.0


@dataclass(frozen=True)
class SocDesign:
    """An unplaced multi-voltage SoC: blocks plus directed nets."""

    name: str
    modules: tuple          #: tuple[Module] (x/y ignored until placed)
    nets: tuple             #: tuple[Crossing] — all inter-block nets

    def __post_init__(self):
        names = [m.name for m in self.modules]
        if len(set(names)) != len(names):
            raise AnalysisError("block names must be unique")
        known = set(names)
        for net in self.nets:
            for end in (net.source, net.destination):
                if end not in known:
                    raise AnalysisError(f"unknown block {end!r}")

    # -- lookups -----------------------------------------------------------

    def module_map(self) -> dict:
        return {m.name: m for m in self.modules}

    def domains(self) -> dict:
        """name -> VoltageDomain, in first-appearance order."""
        out: dict = {}
        for module in self.modules:
            out.setdefault(module.domain.name, module.domain)
        return out

    def domain_crossings(self) -> tuple:
        """The nets whose endpoints live in different domains."""
        by_name = self.module_map()
        return tuple(
            net for net in self.nets
            if by_name[net.source].domain.name
            != by_name[net.destination].domain.name)

    def crossing_domain_pairs(self) -> dict:
        """(src domain, dst domain) -> (VoltageDomain, VoltageDomain)."""
        by_name = self.module_map()
        pairs: dict = {}
        for net in self.domain_crossings():
            src = by_name[net.source].domain
            dst = by_name[net.destination].domain
            pairs.setdefault((src.name, dst.name), (src, dst))
        return pairs


def _domain_ladder(count: int) -> tuple:
    """``count`` distinct supply levels, extending the paper's ladder."""
    levels = list(DEFAULT_LADDER)
    step = DEFAULT_LADDER[1] - DEFAULT_LADDER[0]
    while len(levels) < count:
        levels.append(round(levels[-1] + step, 3))
    return tuple(levels[:count])


def generate_design(blocks: int = 64, domains: int = 4, seed: int = 0,
                    crossing_factor: float = 1.5,
                    dvs_fraction: float = 0.25,
                    name: str | None = None) -> SocDesign:
    """Seed-deterministic synthetic multi-voltage SoC.

    ``blocks`` rectangular voltage-island blocks over ``domains``
    supply domains (voltages from the paper's DVS ladder), connected
    by ``round(blocks * crossing_factor)`` directed nets laid out as a
    random spanning arborescence plus extra random arcs, so the design
    is connected and roughly ``crossing_factor`` nets per block. The
    top ``round(domains * dvs_fraction)`` domains run a periodic DVS
    schedule whose low phase dips to the next ladder level down —
    creating pairs whose up/down relationship flips (or degenerates to
    equality), the scenario that mandates true (bidirectional)
    shifters.
    """
    if blocks < 2:
        raise AnalysisError("need at least 2 blocks")
    if not 2 <= domains <= blocks:
        raise AnalysisError("need 2 <= domains <= blocks")
    rng = np.random.default_rng(seed)
    levels = _domain_ladder(domains)
    dvs_count = int(round(domains * dvs_fraction))
    domain_objs = []
    for index, level in enumerate(levels):
        domain_name = f"d{level:.1f}".replace(".", "p")
        # DVS lives at the top of the ladder: the lowest level has
        # nowhere to dip to (low would clamp to high — no swing).
        if index >= domains - dvs_count:
            low = max(levels[0], round(level - 0.2, 3))
            schedule = periodic_schedule(level, low, period=10.0,
                                         cycles=4)
            domain_objs.append(VoltageDomain(domain_name, schedule))
        else:
            domain_objs.append(VoltageDomain.fixed(domain_name, level))

    modules = []
    log_lo, log_hi = np.log(MIN_BLOCK_EDGE), np.log(MAX_BLOCK_EDGE)
    for index in range(blocks):
        domain = domain_objs[int(rng.integers(domains))]
        width = float(np.exp(rng.uniform(log_lo, log_hi)))
        height = float(np.exp(rng.uniform(log_lo, log_hi)))
        modules.append(Module(f"b{index:04d}", domain,
                              width=round(width, 3),
                              height=round(height, 3)))

    net_count = max(blocks - 1, int(round(blocks * crossing_factor)))
    nets = []
    for index in range(1, blocks):
        other = int(rng.integers(index))
        signals = int(rng.integers(1, 9))
        nets.append(Crossing(modules[index].name, modules[other].name,
                             signals=signals))
    while len(nets) < net_count:
        a, b = (int(v) for v in rng.integers(0, blocks, size=2))
        if a == b:
            continue
        signals = int(rng.integers(1, 9))
        nets.append(Crossing(modules[a].name, modules[b].name,
                             signals=signals))

    return SocDesign(name or f"synthetic{blocks}", tuple(modules),
                     tuple(nets))


def design_from_verilog(module, block_domains: dict, domains: dict,
                        default_width: float = 100.0,
                        default_height: float = 100.0) -> SocDesign:
    """Bridge a parsed structural-Verilog module into a design.

    Every instance of ``module`` (a
    :class:`repro.verilog.VerilogModule`) becomes one block;
    ``block_domains`` maps instance name -> domain name and ``domains``
    maps domain name -> :class:`VoltageDomain` (or a float, taken as a
    fixed supply). Each net arc from a driving instance (port ``Y``)
    to a loading instance (port ``A``) becomes one single-signal net;
    parallel arcs between the same block pair merge, summing signals.
    Top-level port connections carry no placement cost and are ignored.
    """
    resolved = {}
    for domain_name, domain in domains.items():
        if not isinstance(domain, VoltageDomain):
            domain = VoltageDomain.fixed(domain_name, float(domain))
        resolved[domain_name] = domain

    blocks = []
    for inst in module.instances:
        try:
            domain_name = block_domains[inst.name]
        except KeyError:
            raise AnalysisError(
                f"instance {inst.name!r} has no domain assignment"
            ) from None
        try:
            domain = resolved[domain_name]
        except KeyError:
            raise AnalysisError(
                f"{inst.name}: unknown domain {domain_name!r} "
                f"(have {sorted(resolved)})") from None
        blocks.append(Module(inst.name, domain, width=default_width,
                             height=default_height))

    drivers: dict = {}
    for inst in module.instances:
        for port, net in inst.connections.items():
            if port == "Y":
                drivers.setdefault(net, inst.name)
    arcs: dict = {}
    for inst in module.instances:
        for port, net in inst.connections.items():
            if port != "A":
                continue
            driver = drivers.get(net)
            if driver is None or driver == inst.name:
                continue
            arcs[(driver, inst.name)] = arcs.get((driver, inst.name),
                                                 0) + 1
    nets = tuple(Crossing(src, dst, signals=count)
                 for (src, dst), count in sorted(arcs.items()))
    return SocDesign(module.name, tuple(blocks), nets)
