"""Section 4 functional sweep — every (VDDI, VDDO) pair converts.

"We varied VDDI and VDDO voltage values from 0.8V to 1.4V ... Our
SS-TVS was able to translate the voltage level efficiently for all
VDDI and VDDO combinations."

Also demonstrates, for contrast, that the one-way SS-VS baseline fails
exactly where the paper says it must (high-to-low pairs).
"""

from benchmarks.conftest import grid_step
from repro.analysis import SweepGrid, validate_functionality
from repro.runtime.parallel import usable_cpus


def test_functional_sweep_sstvs(benchmark):
    report = benchmark.pedantic(
        lambda: validate_functionality(
            "sstvs", SweepGrid.with_step(grid_step()),
            workers=usable_cpus()),
        rounds=1, iterations=1)
    print(f"\n=== Functional sweep (step {grid_step()} V) ===")
    print(report.summary())
    assert report.all_passed, report.summary()


def test_one_way_shifter_fails_somewhere(benchmark):
    report = benchmark.pedantic(
        lambda: validate_functionality("ssvs_puri",
                                       SweepGrid.with_step(0.3),
                                       workers=usable_cpus()),
        rounds=1, iterations=1)
    print(report.summary())
    # The Puri-style SS-VS [13] has the limited range the paper (and
    # [6]) criticize: its threshold-dropped virtual rail cannot drive
    # the latch at low VDDO, so part of the grid must fail — the gap
    # the SS-TVS closes.
    assert not report.all_passed
