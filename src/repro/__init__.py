"""repro — reproduction of "A Single-supply True Voltage Level Shifter"
(Garg, Mallarapu, Khatri; DATE 2008).

The package provides, from the bottom up:

* :mod:`repro.spice` — a SPICE-class analog circuit simulator (MNA,
  damped Newton with homotopy, adaptive transient, EKV MOSFETs);
* :mod:`repro.pdk` — PTM-90nm-like model cards with temperature
  scaling, Monte Carlo process variation, and corners;
* :mod:`repro.cells` — the SS-TVS cell plus every comparison circuit
  (conventional dual-supply shifter, Puri/Khan single-supply shifters,
  the paper's combined VS baseline) and primitive gates;
* :mod:`repro.core` — the characterization API (delay, switching
  power, leakage, functionality) around :class:`repro.core.LevelShifter`;
* :mod:`repro.analysis` — the paper's experiments: Monte Carlo tables,
  VDDI x VDDO delay surfaces, temperature validation, functional grid;
* :mod:`repro.layout` — analytical cell-area estimates;
* :mod:`repro.soc` — the SoC-level routing/feasibility study behind
  the paper's motivation figures.

Quick start::

    from repro import LevelShifter

    metrics = LevelShifter("sstvs").characterize(vddi=0.8, vddo=1.2)
    print(metrics.pretty("SS-TVS, 0.8 V -> 1.2 V"))
"""

from repro.core import LevelShifter, ShifterMetrics
from repro.pdk import Pdk

__version__ = "1.0.0"

__all__ = ["LevelShifter", "ShifterMetrics", "Pdk", "__version__"]
