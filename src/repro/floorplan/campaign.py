"""Floorplanning as a first-class experiment-engine campaign.

One campaign point = one (strategy, annealing seed) pair: the measure
regenerates the design from its seeded parameters (or unpacks a
bridged design), assigns shifters, anneals, signs the incumbent off
through :mod:`repro.sta`, and returns a plain-JSON payload — so
floorplans inherit everything other campaigns have: process-pool
workers with bitwise serial parity, Ctrl-C partial results,
ArtifactStore manifests with PDK fingerprints, seed-stable resume,
and content-addressed :class:`SolveCache` hits keyed on the full
parameter tuple.

The measure derives *everything* from its params tuple — design,
assignment, annealing randomness — which is what makes worker count
irrelevant to the bits of the result.
"""

from __future__ import annotations

from repro.cells.registry import FLOORPLAN_STRATEGIES
from repro.errors import AnalysisError
from repro.floorplan.anneal import (
    ObjectiveWeights, anneal_floorplan, default_moves,
)
from repro.floorplan.assign import assign_shifters
from repro.floorplan.design import SocDesign, generate_design
from repro.floorplan.signoff import (
    build_crossing_netlist, build_timing_library, signoff_floorplan,
)

#: Experiment name for floorplan campaigns.
FLOORPLAN_EXPERIMENT = "floorplan"

#: Default required arrival for crossing-path sign-off [s].
DEFAULT_REQUIRED = 2e-9


def _resolve_design(source) -> SocDesign:
    tag = source[0]
    if tag == "generate":
        _, blocks, domains, seed, crossing_factor, dvs_fraction = source
        return generate_design(blocks=blocks, domains=domains,
                               seed=seed,
                               crossing_factor=crossing_factor,
                               dvs_fraction=dvs_fraction)
    if tag == "design":
        return source[1]
    raise AnalysisError(f"unknown design source {tag!r}")


def _floorplan_measure(params: tuple) -> dict:
    """Plan, anneal and sign off one floorplan point."""
    (source, strategy, seed, moves, required, timing, node,
     leakage, require_signoff, weights_tuple) = params
    design = _resolve_design(source)
    pdk = None
    if timing == "spice" or leakage == "spice":
        from repro.pdk.registry import make_pdk
        pdk = make_pdk(node)
    leakage_table = None
    if isinstance(leakage, tuple):
        leakage_table = dict(leakage[1])
    assignment = assign_shifters(
        design, strategy, pdk=pdk,
        characterize_leakage=(leakage == "spice"),
        leakage_table=leakage_table)
    weights = ObjectiveWeights(*weights_tuple)
    result = anneal_floorplan(design, assignment, seed=seed,
                              moves=moves, weights=weights)
    netlist, paths = build_crossing_netlist(design, assignment,
                                            result.positions)
    library = build_timing_library(design, assignment, pdk=pdk,
                                   mode=timing)
    signoff = signoff_floorplan(netlist, paths, library, required)
    if require_signoff and not signoff.ok:
        raise AnalysisError(
            f"floorplan {strategy}/s{seed} failed timing sign-off: "
            + signoff.summary())
    breakdown = result.breakdown
    return {
        "strategy": strategy,
        "seed": seed,
        "blocks": len(design.modules),
        "crossings": len(assignment.crossings),
        "shifter_count": assignment.shifter_count,
        "cost": result.cost,
        "width": breakdown.width,
        "height": breakdown.height,
        "area": breakdown.area,
        "hpwl": breakdown.hpwl,
        "rail_length": breakdown.rail_length,
        "control_length": breakdown.control_length,
        "shifter_area": breakdown.shifter_area,
        "leakage": breakdown.leakage,
        "accepted": result.accepted,
        "evaluated": result.evaluated,
        "incumbent_move": result.incumbent_move,
        "signoff_ok": signoff.ok,
        "worst_slack": signoff.worst_slack,
        "violations": len(signoff.violations),
        "required": required,
        "placement_digest": result.digest(),
    }


def floorplan_spec(source=None, design: SocDesign | None = None,
                   blocks: int = 64, domains: int = 4,
                   design_seed: int = 0, crossing_factor: float = 1.5,
                   dvs_fraction: float = 0.25, strategies=None,
                   seed: int = 0, restarts: int = 1,
                   moves: int | None = None,
                   required: float = DEFAULT_REQUIRED,
                   timing: str = "synthetic", node: str = "ptm90",
                   leakage: str = "none",
                   require_signoff: bool = False,
                   weights: ObjectiveWeights | None = None,
                   workers: int = 1):
    """Describe a floorplan campaign declaratively.

    Points span ``strategies`` x ``restarts`` annealing seeds
    (``seed .. seed + restarts - 1``). Pass ``design=`` to floorplan a
    bridged (e.g. Verilog) design, otherwise the synthetic generator's
    parameters travel in the params tuple and every worker regenerates
    the identical design from them.
    """
    from repro.runtime.experiment import ExperimentPoint, ExperimentSpec
    strategies = tuple(strategies or FLOORPLAN_STRATEGIES)
    for strategy in strategies:
        if strategy not in FLOORPLAN_STRATEGIES:
            raise AnalysisError(
                f"unknown floorplan strategy {strategy!r}; expected "
                f"one of {FLOORPLAN_STRATEGIES}")
    if timing not in ("synthetic", "spice"):
        raise AnalysisError(f"unknown timing mode {timing!r}")
    if isinstance(leakage, dict):
        # A per-cell leakage table (e.g. leaderboard_leakage output)
        # travels in the params as a sorted tuple so cache keys and
        # worker pickles stay canonical.
        leakage = ("table", tuple(sorted(leakage.items())))
    elif leakage not in ("none", "spice"):
        raise AnalysisError(f"unknown leakage mode {leakage!r}")
    if restarts < 1:
        raise AnalysisError("need at least one annealing restart")
    if source is None:
        if design is not None:
            source = ("design", design)
        else:
            source = ("generate", blocks, domains, design_seed,
                      crossing_factor, dvs_fraction)
    block_count = (len(design.modules) if design is not None
                   else blocks)
    if moves is None:
        moves = default_moves(block_count)
    weights = weights or ObjectiveWeights()
    weights_tuple = (weights.area, weights.wirelength, weights.rail,
                     weights.control, weights.leakage)
    points = []
    for strategy in strategies:
        for restart in range(restarts):
            anneal_seed = seed + restart
            points.append(ExperimentPoint(
                f"{strategy}/s{anneal_seed}",
                (source, strategy, anneal_seed, moves, required,
                 timing, node, leakage, require_signoff,
                 weights_tuple)))
    return ExperimentSpec(
        name=FLOORPLAN_EXPERIMENT, measure=_floorplan_measure,
        points=points, stage="floorplan", codec="json", workers=workers,
        metadata={"experiment": FLOORPLAN_EXPERIMENT,
                  "pdk_node": node, "blocks": block_count,
                  "strategies": list(strategies), "seed": seed,
                  "restarts": restarts, "moves": moves,
                  "required": required, "timing": timing,
                  "leakage": leakage,
                  "require_signoff": require_signoff})


def best_by_strategy(resultset) -> dict:
    """strategy -> lowest-cost successful payload of the campaign."""
    best: dict = {}
    for row in resultset.rows:
        if not row.ok:
            continue
        payload = row.value
        strategy = payload["strategy"]
        incumbent = best.get(strategy)
        if incumbent is None or payload["cost"] < incumbent["cost"]:
            best[strategy] = payload
    return best
