"""Single-supply (non-true) level shifters: Puri et al. [13] and the
improved Khan et al. [6] style.

Neither reference circuit's transistor-level schematic is available in
this environment, so both are reconstructed from their published
descriptions (see DESIGN.md, substitutions table):

* **Puri style** [13]: a CVS-like half-latch whose input inverter is
  powered from a *virtual rail* one diode-connected-NMOS threshold below
  VDDO. The VT drop aligns the inverter's PMOS gate overdrive with the
  reduced input swing, cutting the leakage an ordinary inverter would
  exhibit — but the range is limited and leakage grows once
  ``VDDO - VDDI`` exceeds a threshold (exactly the critique in the
  paper's Section 2).

* **Khan style** [6]: adds a feedback keeper PMOS that restores the
  virtual rail to full VDDO while the input is low, removing the
  contention/leakage of that state and extending the working range.
  This is the paper's comparison baseline ("best known previous
  approach" for VDDI < VDDO).

Both are *inverting* as built here (output taken from the n1 side of
the latch), matching the paper's note that its comparison method has
the same inverting polarity as the SS-TVS.
"""

from __future__ import annotations

from repro.cells.inverter import add_inverter
from repro.pdk.ptm90 import LOW_VT


def add_ssvs_puri(circuit, pdk, name: str, inp: str, out: str, vddo: str,
                  gnd: str = "0", l: float | None = None) -> dict:
    """Add a Puri-style [13] single-supply level shifter (inverting)."""
    vvdd = f"{name}.vvdd"
    inb = f"{name}.inb"
    xout = f"{name}.xout"
    devices = {}
    devices["mdiode"] = circuit.add(pdk.mosfet(
        f"{name}.mdiode", vddo, vddo, vvdd, gnd, "n", 0.4e-6, l)).name
    devices.update({f"inv_{k}": v for k, v in add_inverter(
        circuit, pdk, f"{name}.inv1", inp, inb, vvdd, gnd, l=l).items()})
    devices["mn1"] = circuit.add(pdk.mosfet(
        f"{name}.mn1", out, inp, gnd, gnd, "n", 0.6e-6, l)).name
    devices["mno"] = circuit.add(pdk.mosfet(
        f"{name}.mno", xout, inb, gnd, gnd, "n", 0.6e-6, l)).name
    devices["mp1"] = circuit.add(pdk.mosfet(
        f"{name}.mp1", out, xout, vddo, vddo, "p", 0.12e-6, 0.2e-6)).name
    devices["mpo"] = circuit.add(pdk.mosfet(
        f"{name}.mpo", xout, out, vddo, vddo, "p", 0.12e-6, 0.2e-6)).name
    devices["nodes"] = {"vvdd": vvdd, "inb": inb, "xout": xout}
    return devices


def add_ssvs_khan(circuit, pdk, name: str, inp: str, out: str, vddo: str,
                  gnd: str = "0", l: float | None = None) -> dict:
    """Add a Khan-style [6] single-supply level shifter (inverting).

    Compared to the Puri structure, the keeper PMOS (gate = latch right
    side ``xout``) pulls the virtual rail to full VDDO whenever the
    input is low, so the input inverter then drives its NMOS load with
    a full-VDDO gate and leaks only subthreshold current. With the
    input high, the keeper releases and the diode-limited rail keeps
    the input inverter's PMOS near its cut-off edge — leakage well
    below a plain inverter's contention current, but (as the paper
    reports for [6]) clearly above the SS-TVS.
    """
    vvdd = f"{name}.vvdd"
    inb = f"{name}.inb"
    xout = f"{name}.xout"
    devices = {}
    # Low-Vt rail diode: keeps the virtual-rail floor a full NMOS
    # threshold above ground even at VDDO = 0.8 V, so the input
    # inverter can still flip the latch — the range extension [6]
    # claims over [13].
    devices["mdiode"] = circuit.add(pdk.mosfet(
        f"{name}.mdiode", vddo, vddo, vvdd, gnd, "n", 0.4e-6, l,
        LOW_VT)).name
    devices["mkeep"] = circuit.add(pdk.mosfet(
        f"{name}.mkeep", vvdd, xout, vddo, vddo, "p", 0.3e-6, l)).name
    devices.update({f"inv_{k}": v for k, v in add_inverter(
        circuit, pdk, f"{name}.inv1", inp, inb, vvdd, gnd, l=l).items()})
    # Pull-downs must overpower the deliberately weak cross-coupled
    # PMOS pair to flip the half-latch (standard DCVS ratioing).
    devices["mn1"] = circuit.add(pdk.mosfet(
        f"{name}.mn1", out, inp, gnd, gnd, "n", 0.6e-6, l)).name
    devices["mno"] = circuit.add(pdk.mosfet(
        f"{name}.mno", xout, inb, gnd, gnd, "n", 0.6e-6, l)).name
    devices["mp1"] = circuit.add(pdk.mosfet(
        f"{name}.mp1", out, xout, vddo, vddo, "p", 0.12e-6, 0.2e-6)).name
    devices["mpo"] = circuit.add(pdk.mosfet(
        f"{name}.mpo", xout, out, vddo, vddo, "p", 0.12e-6, 0.2e-6)).name
    devices["nodes"] = {"vvdd": vvdd, "inb": inb, "xout": xout}
    return devices
