"""Table 4 — Monte Carlo, high-to-low (1.2 V -> 0.8 V, 27 C).

Same methodology as Table 3 in the opposite direction. Default 25
samples (REPRO_MC_RUNS to raise; paper used 1000).
"""

from benchmarks.conftest import mc_runs, print_mc_table
from repro.analysis import MonteCarloConfig, run_monte_carlo
from repro.runtime.parallel import usable_cpus

VDDI, VDDO = 1.2, 0.8


def _measure():
    config = MonteCarloConfig(runs=mc_runs(), seed=20080310,
                              workers=usable_cpus())
    sstvs = run_monte_carlo("sstvs", VDDI, VDDO, config)
    combined = run_monte_carlo("combined", VDDI, VDDO, config)
    return sstvs, combined


def test_table4_monte_carlo_high_to_low(benchmark):
    sstvs, combined = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print_mc_table(
        f"Table 4: Process-variation MC, 1.2 V -> 0.8 V, 27 C "
        f"({mc_runs()} runs; paper used 1000)", sstvs, combined)

    assert sstvs.functional_yield == 1.0
    assert combined.functional_yield == 1.0
    # Mean leakage ordering survives variation (paper Table 4).
    assert (sstvs.statistics.mean.leakage_high
            < combined.statistics.mean.leakage_high)
