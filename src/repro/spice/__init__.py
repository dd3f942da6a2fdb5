"""A small SPICE-class analog circuit simulator.

This package provides the simulation substrate for the level-shifter
reproduction: a circuit data model (:mod:`repro.spice.circuit`), device
models including an EKV-style MOSFET (:mod:`repro.spice.devices`),
modified-nodal-analysis assembly (:mod:`repro.spice.mna`), a damped
Newton solver with homotopy fallbacks (:mod:`repro.spice.newton`), and
operating-point, DC-sweep, and adaptive transient analyses.

Typical use::

    from repro.spice import Circuit, OperatingPoint, Transient
    from repro.spice.devices import Resistor, VoltageSource

    ckt = Circuit("divider")
    ckt.add(VoltageSource("vin", "in", "0", dc=1.0))
    ckt.add(Resistor("r1", "in", "mid", 1e3))
    ckt.add(Resistor("r2", "mid", "0", 1e3))
    op = OperatingPoint(ckt).run()
    assert abs(op["mid"] - 0.5) < 1e-9
"""

from repro.spice.circuit import Circuit
from repro.spice.op import OperatingPoint, OpResult
from repro.spice.transient import Transient, TransientResult
from repro.spice.dcsweep import DcSweep, DcSweepResult
from repro.spice.waveform import Waveform

__all__ = [
    "Circuit",
    "OperatingPoint",
    "OpResult",
    "Transient",
    "TransientResult",
    "DcSweep",
    "DcSweepResult",
    "Waveform",
]
