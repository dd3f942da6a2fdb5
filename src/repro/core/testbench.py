"""Testbench construction for level-shifter characterization.

The bench replicates the paper's measurement setup (Section 4):

* the device under test is driven by a same-sized inverter powered from
  the *input* domain supply VDDI, itself driven by an ideal PWL source
  (so the DUT sees realistic edges and — crucial for the SS-TVS, whose
  M1 dumps charge into the input node — a realistic driver impedance);
* the DUT output carries a fixed 1 fF load;
* the DUT's single supply VDDO is a dedicated source so leakage and
  switching power are measured on it alone, excluding the driver;
* the combined VS additionally receives its external select signal,
  set according to whether the shift is low-to-high or high-to-low.

All DUT kinds used by the experiments are built through one registry so
benches, tests and Monte Carlo all share the construction path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.cells import add_inverter
from repro.cells.registry import (
    add_select_sources, build_dut, cell_names, dut_is_inverting,
)
from repro.errors import AnalysisError
from repro.spice import Circuit
from repro.spice.devices import Capacitor, Pwl, VoltageSource

#: Well-known kind identifiers (the paper's cells). The registry — not
#: these constants — is the source of truth; they exist so call sites
#: read as prose.
SSTVS = "sstvs"
COMBINED = "combined"
INVERTER = "inverter"
SSVS_KHAN = "ssvs_khan"
SSVS_PURI = "ssvs_puri"
CVS = "cvs"


def __getattr__(name: str):
    # KINDS is computed, not stored: late-registered cells appear in it
    # automatically, so argparse choices, sweep-all campaigns, and the
    # test matrix track the live registry.
    if name == "KINDS":
        return cell_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: Default output load, from the paper ("loaded with a fixed
#: capacitance of 1 fF").
LOAD_CAP = 1e-15

#: Ideal-source edge slew feeding the driver inverter [s].
SOURCE_SLEW = 5e-12


@dataclass(frozen=True)
class InputStep:
    """One input edge: at ``time`` the DUT input goes to ``high``."""

    time: float
    high: bool


@dataclass
class TestbenchProbes:
    """Node/source names to observe in analyses."""

    in_node: str = "in"
    out_node: str = "out"
    dut_supply: str = "vdut"
    driver_supply: str = "vdrv"
    source: str = "vsrc"
    internal: dict = field(default_factory=dict)


def input_source_pwl(steps: Sequence[InputStep], vddi: float,
                     slew: float = SOURCE_SLEW) -> Pwl:
    """PWL for the ideal source so the DUT input follows ``steps``.

    The driver inverter inverts, so the source gets the complement of
    each requested input level.
    """
    if not steps:
        raise AnalysisError("at least one input step is required")
    ordered = sorted(steps, key=lambda s: s.time)
    first = ordered[0]
    # Source level producing the pre-t0 input state: input low (high
    # source) before the first rising step and vice versa.
    points = [(1e-15, vddi if first.high else 0.0)]
    for step in ordered:
        if step.time <= points[-1][0]:
            raise AnalysisError("input steps must be strictly increasing "
                                "in time and after t=0")
        level = 0.0 if step.high else vddi
        points.append((step.time, points[-1][1]))
        points.append((step.time + slew, level))
    return Pwl(points)


def build_testbench(pdk, kind: str, vddi: float, vddo: float,
                    steps: Sequence[InputStep],
                    load_cap: float = LOAD_CAP,
                    sizing=None,
                    driver_scale: float = 1.0
                    ) -> tuple[Circuit, TestbenchProbes]:
    """Build the full characterization bench around one DUT.

    Args:
        driver_scale: multiplier on the driver inverter's device widths
            (1.0 = the paper's same-sized driver). Used by the
            driver-strength study; the SS-TVS's rising edge discharges
            node2 *through the input node*, so the driver's sink
            strength is on the critical path.

    Returns the circuit and the probe-name bundle.
    """
    if vddi <= 0 or vddo <= 0:
        raise AnalysisError("supply voltages must be positive")
    if driver_scale <= 0:
        raise AnalysisError("driver_scale must be positive")
    circuit = Circuit(f"{kind}_tb_{vddi:.3f}_to_{vddo:.3f}")
    probes = TestbenchProbes()

    circuit.add(VoltageSource(probes.dut_supply, "vddo", "0", dc=vddo))
    circuit.add(VoltageSource(probes.driver_supply, "vddi", "0", dc=vddi))
    circuit.add(VoltageSource(probes.source, "src", "0",
                              shape=input_source_pwl(steps, vddi)))
    from repro.cells.inverter import WN_DEFAULT, WP_DEFAULT
    add_inverter(circuit, pdk, "driver", "src", probes.in_node, "vddi",
                 wn=WN_DEFAULT * driver_scale,
                 wp=WP_DEFAULT * driver_scale)

    # Externally steered cells (the combined VS) get their
    # direction-select sources from the registry's shared helper.
    add_select_sources(circuit, kind, vddi, vddo)

    probes.internal = build_dut(circuit, pdk, kind, probes.in_node,
                                probes.out_node, "vddo", "vddi", sizing)
    circuit.add(Capacitor("cload", probes.out_node, "0", load_cap))
    return circuit, probes
