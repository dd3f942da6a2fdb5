"""Set-up probe: what a workload costs before it computes anything.

Run as ``python -m benchmarks.perf.setup_probe <repro argv...>``: imports
the CLI, parses the workload's argv and makes its campaign spec with the
same public function the command uses, then exits. The harness times
the whole process, interpreter start included, as ``setup_s``.
"""

from __future__ import annotations

import sys


def _mc(args):
    from repro.analysis import MonteCarloConfig
    from repro.analysis.montecarlo import monte_carlo_spec
    config = MonteCarloConfig(runs=args.runs, seed=args.seed,
                              temperature_c=args.temp, workers=args.workers,
                              backend=args.backend, solver=args.solver,
                              pdk_node=args.pdk)
    return monte_carlo_spec(args.kind, args.vddi, args.vddo, config)


def _sweep(args):
    from repro.analysis import SweepGrid
    from repro.analysis.sweep import sweep_spec
    from repro.pdk import make_pdk
    return sweep_spec(args.kind, SweepGrid.with_step(args.step),
                      pdk=make_pdk(args.pdk, args.temp),
                      workers=args.workers)


def _floorplan(args):
    from repro.floorplan import floorplan_spec
    return floorplan_spec(
        blocks=args.blocks, domains=args.domains,
        design_seed=args.design_seed, crossing_factor=args.crossing_factor,
        strategies=tuple(args.strategies), seed=args.seed,
        restarts=args.restarts, moves=args.moves,
        required=args.required * 1e-9, timing=args.timing, node=args.pdk,
        leakage=args.leakage, require_signoff=args.require_signoff,
        workers=args.workers)


def _leaderboard(args):
    # The leaderboard has no spec; resolve what it validates first.
    from repro.analysis.leaderboard import build_leaderboard  # noqa: F401
    from repro.pdk.registry import get_node, node_names
    return [get_node(name) for name in args.nodes or node_names()]


SPECS = {"mc": _mc, "sweep": _sweep, "floorplan": _floorplan,
         "bench": _leaderboard}


def main(argv) -> int:
    import repro.cli
    args = repro.cli.build_parser().parse_args(argv)
    SPECS[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
