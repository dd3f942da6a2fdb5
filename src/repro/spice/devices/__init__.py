"""Device models for the SPICE engine."""

from repro.spice.devices.base import Device, TwoTerminal
from repro.spice.devices.passive import Resistor, Capacitor
from repro.spice.devices.sources import (
    VoltageSource, CurrentSource, Dc, Pulse, Pwl,
)
from repro.spice.devices.diode import Diode
from repro.spice.devices.inductor import Inductor
from repro.spice.devices.mosfet import Mosfet, MosfetParams

__all__ = [
    "Device",
    "TwoTerminal",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Dc",
    "Pulse",
    "Pwl",
    "Diode",
    "Inductor",
    "Mosfet",
    "MosfetParams",
]
