"""Figure 8 — rising delay of the SS-TVS over the VDDI x VDDO grid.

The paper sweeps both supplies over [0.8 V, 1.4 V] (5 mV steps) and
shows the rising delay changing smoothly over the whole plane with no
functional failures. Default grid step here is 0.1 V (REPRO_GRID_STEP
to refine); the same sweep also feeds Figure 9 (cached).

Shape claims checked: full-grid functionality and smoothness (no
adjacent-cell delay cliff).
"""

from benchmarks.conftest import grid_step
from benchmarks.paper_data import PAPER_VDD_RANGE
from repro.analysis import SweepGrid, render_surface_ascii, sweep_delay_surface
from repro.runtime.parallel import usable_cpus

_CACHE = {}


def shared_surface():
    """One sweep serves Figures 8 and 9."""
    step = grid_step()
    if step not in _CACHE:
        _CACHE[step] = sweep_delay_surface("sstvs",
                                           SweepGrid.with_step(step),
                                           workers=usable_cpus())
    return _CACHE[step]


def test_fig8_rising_delay_surface(benchmark):
    surface = benchmark.pedantic(shared_surface, rounds=1, iterations=1)
    print(f"\n=== Figure 8: SS-TVS rising delay [ps] over "
          f"VDDI x VDDO = {PAPER_VDD_RANGE} (step {grid_step()} V) ===")
    print(render_surface_ascii(surface, "rise"))

    assert surface.functional_fraction == 1.0
    assert surface.is_smooth(factor=6.0)
    # Delays stay in a sane envelope across the whole plane.
    assert surface.worst_rise() < 2e-9
