"""Characterization flows: delay, switching power, leakage, function.

The measurement methodology mirrors the paper's Section 4:

* **Delays** are 50 %-to-50 % input-to-output delays, reported as the
  *worst case over the input sequence*. The paper identifies the worst
  case for the rising output: an input high phase too short to fully
  charge the ctrl node, weakening M1's gate drive on the following
  input fall. The default stimulus therefore exercises each output edge
  twice — once after a long (fully settled) opposite phase and once
  after a short one — and reports the maximum per edge.
* **Switching power** is the average power drawn from the DUT's VDDO
  supply over a fixed window following the input edge that causes the
  output transition (driver and ideal sources excluded).
* **Leakage** is the static VDDO supply current, read from the settled
  tail of each logic state's quiet window (equivalent to a SPICE ``.op``
  at that state, but guaranteed to be on the *reached* state of the
  latch nodes rather than an arbitrary DC solution).
* **Functionality** requires the output to settle to within tolerance
  of the correct rail after every edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import ShifterMetrics
from repro.core.testbench import (
    InputStep, build_testbench, dut_is_inverting,
)
from repro.errors import AnalysisError, ConvergenceError, MeasurementError
from repro.spice.newton import NewtonOptions, newton_solve
from repro.spice.transient import Transient, TransientOptions
from repro.spice.waveform import FALL, RISE, propagation_delay


@dataclass(frozen=True)
class StimulusPlan:
    """Timing of the characterization stimulus.

    The input pattern is::

        reset pulse --(settle)--> RISE A --(hold)--> FALL B --(hold)-->
        RISE C --(short)--> FALL D --(hold)--> end

    The reset pulse (a brief input-high excursion early in the settle
    phase) knocks every latch in the DUT into its driven state: a cold
    DC operating point of a cross-coupled structure can legitimately
    converge on a metastable middle solution, and the input-high state
    is the one every shifter in this study drives unconditionally.

    Edges A/C drive the output's falling transitions (inverting DUT),
    edges B/D its rising ones; D follows a deliberately short high
    phase (the paper's worst case for the rising delay).
    """

    settle: float = 4e-9
    hold: float = 3e-9
    short: float = 0.8e-9
    reset_rise: float = 0.2e-9
    reset_fall: float = 2.2e-9
    power_window: float = 0.5e-9
    leakage_window: float = 0.5e-9
    #: Output must be within this fraction of the rail to count as
    #: settled/correct.
    level_tolerance: float = 0.08

    @property
    def t_rise_a(self) -> float:
        return self.settle

    @property
    def t_fall_b(self) -> float:
        return self.settle + self.hold

    @property
    def t_rise_c(self) -> float:
        return self.settle + 2 * self.hold

    @property
    def t_fall_d(self) -> float:
        return self.settle + 2 * self.hold + self.short

    @property
    def t_stop(self) -> float:
        return self.t_fall_d + self.hold

    def steps(self) -> list[InputStep]:
        return [InputStep(self.reset_rise, True),
                InputStep(self.reset_fall, False),
                InputStep(self.t_rise_a, True),
                InputStep(self.t_fall_b, False),
                InputStep(self.t_rise_c, True),
                InputStep(self.t_fall_d, False)]

    def validate(self) -> None:
        if min(self.settle, self.hold, self.short, self.reset_rise) <= 0:
            raise AnalysisError("stimulus phases must be positive")
        if not self.reset_rise < self.reset_fall < self.settle:
            raise AnalysisError("reset pulse must fit inside settle phase")
        if self.power_window >= self.hold:
            raise AnalysisError("power window must fit inside hold phase")


def _default_transient_options() -> TransientOptions:
    return TransientOptions(h_max=50e-12, dv_max=0.05)


def run_stimulus(pdk, kind: str, vddi: float, vddo: float,
                 plan: StimulusPlan, load_cap: float = 1e-15,
                 sizing=None, transient_options=None,
                 driver_scale: float = 1.0):
    """Build the bench, run the transient, return (result, probes)."""
    plan.validate()
    circuit, probes = build_testbench(pdk, kind, vddi, vddo, plan.steps(),
                                      load_cap=load_cap, sizing=sizing,
                                      driver_scale=driver_scale)
    options = transient_options or _default_transient_options()
    result = Transient(circuit, plan.t_stop, options).run()
    return result, probes


def characterize(pdk, kind: str, vddi: float, vddo: float,
                 plan: StimulusPlan | None = None,
                 load_cap: float = 1e-15, sizing=None,
                 transient_options=None,
                 driver_scale: float = 1.0) -> ShifterMetrics:
    """Full six-metric characterization of one shifter at one corner.

    A simulation that fails to converge (far outside the DUT's working
    range, or a pathological Monte Carlo sample) is reported as a
    non-functional sample with NaN metrics rather than raised.
    """
    plan = plan or StimulusPlan()
    try:
        result, probes = run_stimulus(pdk, kind, vddi, vddo, plan,
                                      load_cap=load_cap, sizing=sizing,
                                      transient_options=transient_options,
                                      driver_scale=driver_scale)
    except ConvergenceError:
        return _NONFUNCTIONAL
    return _metrics_from_result(result, probes, kind, vddi, vddo, plan)


#: The convergence-failure sentinel: NaN metrics, not functional.
_NONFUNCTIONAL = ShifterMetrics(
    float("nan"), float("nan"), float("nan"), float("nan"),
    float("nan"), float("nan"), functional=False)


def _metrics_from_result(result, probes, kind: str, vddi: float,
                         vddo: float, plan: StimulusPlan,
                         leakage=None) -> ShifterMetrics:
    """Extract the six metrics from a completed stimulus transient.

    Shared verbatim by :func:`characterize` and
    :func:`characterize_batch`: a batched lane whose waveforms are
    bitwise the serial ones therefore yields bitwise-identical metrics.

    ``leakage`` optionally carries the two static-current probes
    (at ``t_rise_a - 30ps`` then ``t_fall_b - 30ps``) precomputed by a
    batched DC pass; a ``None`` slot falls back to the serial solve.
    """
    w_in = result.wave(probes.in_node)
    w_out = result.wave(probes.out_node)
    i_dut = result.supply_current(probes.dut_supply)

    inverting = dut_is_inverting(kind)
    v_in_mid = vddi / 2.0
    v_out_mid = vddo / 2.0
    out_rise_in_edge = FALL if inverting else RISE
    out_fall_in_edge = RISE if inverting else FALL

    def edge_delay(t_edge: float, in_edge: str, out_edge: str) -> float:
        return propagation_delay(w_in, w_out, v_in_mid, v_out_mid,
                                 in_edge, out_edge,
                                 after=t_edge - 0.05e-9)

    # Input rises at A/C, falls at B/D. Map to output edges by polarity.
    in_rise_times = (plan.t_rise_a, plan.t_rise_c)
    in_fall_times = (plan.t_fall_b, plan.t_fall_d)
    out_rise_times = in_fall_times if inverting else in_rise_times
    out_fall_times = in_rise_times if inverting else in_fall_times
    try:
        delay_rise = max(edge_delay(t, out_rise_in_edge, RISE)
                         for t in out_rise_times)
        delay_fall = max(edge_delay(t, out_fall_in_edge, FALL)
                         for t in out_fall_times)
    except MeasurementError:
        # The output never crossed its midpoint: non-functional sample.
        return _NONFUNCTIONAL

    def window_power(t_edge: float) -> float:
        return vddo * i_dut.average(t_edge, t_edge + plan.power_window)

    power_rise = window_power(out_rise_times[0])
    power_fall = window_power(out_fall_times[0])

    # Leakage: a true DC solve of the bench *seeded from the reached
    # transient state* just before the next edge. Seeding pins the
    # latch nodes to the state the circuit actually occupies (a cold DC
    # solve of a latch can settle on the wrong branch), while the DC
    # solve itself removes the slow subthreshold settling tails that
    # would contaminate a windowed transient average. With an inverting
    # DUT the output is HIGH while the input is low (the initial settle
    # phase) and LOW while it is high (phase A..B).
    def static_current(t_probe: float) -> float:
        seed = result.state_at(t_probe)
        # Small damping steps keep Newton from hopping between latch
        # branches when the seed sits next to a regenerative loop.
        try:
            x = newton_solve(result.circuit, seed, time=t_probe,
                             options=NewtonOptions(max_step_v=0.04,
                                                   max_iterations=400))
            return -float(x[result.circuit.branch_index(probes.dut_supply)])
        except ConvergenceError:
            # Fall back to the windowed transient average; slightly
            # contaminated by slow settling tails but always defined.
            return i_dut.average(t_probe - plan.leakage_window + 30e-12,
                                 t_probe)

    first, second = leakage if leakage is not None else (None, None)
    if first is None:
        first = static_current(plan.t_rise_a - 30e-12)
    if second is None:
        second = static_current(plan.t_fall_b - 30e-12)
    if inverting:
        leakage_high, leakage_low = first, second
    else:
        leakage_low, leakage_high = first, second

    tol = plan.level_tolerance * vddo
    if inverting:
        high_ok = w_out.value_at(plan.t_rise_a - 30e-12) >= vddo - tol
        low_ok = abs(w_out.value_at(plan.t_fall_b - 30e-12)) <= tol
        final_ok = w_out.value_at(plan.t_stop) >= vddo - tol
    else:
        low_ok = abs(w_out.value_at(plan.t_rise_a - 30e-12)) <= tol
        high_ok = w_out.value_at(plan.t_fall_b - 30e-12) >= vddo - tol
        final_ok = abs(w_out.value_at(plan.t_stop)) <= tol
    functional = bool(high_ok and low_ok and final_ok)

    return ShifterMetrics(
        delay_rise=delay_rise, delay_fall=delay_fall,
        power_rise=power_rise, power_fall=power_fall,
        leakage_high=leakage_high, leakage_low=leakage_low,
        functional=functional)


def characterize_batch(lanes, transient_options=None) -> list:
    """Characterize N same-topology corners in one batched transient.

    ``lanes`` is a sequence of ``(pdk, kind, vddi, vddo, plan,
    load_cap, sizing, driver_scale)`` tuples — :func:`characterize`'s
    arguments, one tuple per lane. Monte Carlo lanes differ only in
    their :class:`~repro.pdk.variation.VariedPdk` (and possibly the
    supplies), which is exactly the same-topology case
    :class:`~repro.spice.batch.LaneGroup` accepts.

    Returns one entry per lane: a :class:`ShifterMetrics` on success, a
    :class:`~repro.runtime.experiment.BatchPointFailure` where the
    bench could not even be built (the experiment engine quarantines
    those, matching what the serial path's raised exception would do).
    Lanes whose transient stalls come back as the NaN non-functional
    metrics — the same convention :func:`characterize` uses for
    :class:`ConvergenceError`.

    If the lanes cannot be stacked (mixed topologies, opaque devices),
    every lane falls back to the serial :func:`characterize` — the
    downgrade is per-call and silent, so callers never need to know
    which path ran.
    """
    from repro.runtime.experiment import BatchPointFailure
    from repro.spice.batch import BatchTransient, BatchUnsupported

    built = []       # (lane_pos, circuit, probes, lane_args)
    results: list = [None] * len(lanes)
    for pos, lane in enumerate(lanes):
        pdk, kind, vddi, vddo, plan, load_cap, sizing, driver_scale = lane
        plan = plan or StimulusPlan()
        try:
            plan.validate()
            circuit, probes = build_testbench(
                pdk, kind, vddi, vddo, plan.steps(), load_cap=load_cap,
                sizing=sizing, driver_scale=driver_scale)
        except Exception as exc:  # noqa: BLE001 - quarantined per lane
            results[pos] = BatchPointFailure(stage="build", error=str(exc))
            continue
        built.append((pos, circuit, probes,
                      (kind, vddi, vddo, plan)))
    if not built:
        return results

    options = transient_options or _default_transient_options()
    try:
        batch = BatchTransient([c for _, c, _, _ in built],
                               [args[3].t_stop for _, _, _, args in built],
                               options)
    except BatchUnsupported:
        for pos, lane in enumerate(lanes):
            if results[pos] is None:
                (pdk, kind, vddi, vddo, plan, load_cap, sizing,
                 driver_scale) = lane
                results[pos] = characterize(
                    pdk, kind, vddi, vddo, plan=plan, load_cap=load_cap,
                    sizing=sizing, transient_options=transient_options,
                    driver_scale=driver_scale)
        return results

    bres = batch.run()
    leakage = _batched_leakage(batch.group, bres, built)
    for k, (pos, _, probes, (kind, vddi, vddo, plan)) in enumerate(built):
        if not bres.ok(k):
            results[pos] = _NONFUNCTIONAL
            continue
        results[pos] = _metrics_from_result(bres.lane(k), probes, kind,
                                            vddi, vddo, plan,
                                            leakage=leakage[k])
    return results


def _batched_leakage(group, bres, built) -> list:
    """Both static-current probes for every live lane, two batched DC
    solves total instead of two serial Newton runs per lane.

    A converged lane's supply current is bitwise the serial
    ``static_current`` value (same seed, same time, same options, lane
    replay per the batch equivalence contract). Non-converged slots stay
    None and :func:`_metrics_from_result` re-runs the serial solve —
    which fails identically and lands on the windowed-average fallback.
    """
    pairs = [[None, None] for _ in built]
    live = [k for k in range(len(built)) if bres.ok(k)]
    if not live:
        return pairs
    opts = NewtonOptions(max_step_v=0.04, max_iterations=400)
    for slot in (0, 1):
        times = []
        seeds = []
        for k in live:
            plan = built[k][3][3]
            t = (plan.t_rise_a if slot == 0 else plan.t_fall_b) - 30e-12
            times.append(t)
            seeds.append(bres.lane(k).state_at(t))
        res = group.newton(np.asarray(live, dtype=np.intp),
                           np.asarray(seeds, dtype=float),
                           times=times, options=opts)
        for pos, k in enumerate(live):
            if res.converged[pos]:
                circuit, probes = built[k][1], built[k][2]
                pairs[k][slot] = -float(
                    res.x[pos][circuit.branch_index(probes.dut_supply)])
    return pairs


@dataclass(frozen=True)
class QuickDelays:
    """Lightweight result for voltage-grid sweeps (Figures 8/9)."""

    delay_rise: float
    delay_fall: float
    functional: bool


def quick_delays(pdk, kind: str, vddi: float, vddo: float,
                 settle: float = 3.0e-9, hold: float = 2.5e-9,
                 sizing=None, transient_options=None) -> QuickDelays:
    """One rise + one fall delay with a two-edge stimulus, for sweeps.

    Uses the long-charge edges only (the paper's surface plots show the
    delay trend across the voltage grid, not the worst-case sequence),
    which keeps the 169-point grid sweeps tractable.
    """
    # Reset pulse first: see StimulusPlan on latch metastability. The
    # pulse is long enough for the SS-TVS ctrl node to charge, so the
    # recovery edge completes before the measurement window.
    steps, t_rise, t_fall, t_stop = _quick_steps(settle, hold)
    circuit, probes = build_testbench(pdk, kind, vddi, vddo, steps,
                                      sizing=sizing)
    options = transient_options or _default_transient_options()
    try:
        result = Transient(circuit, t_stop, options).run()
    except ConvergenceError:
        return QuickDelays(float("nan"), float("nan"), False)
    return _quick_from_result(result, probes, kind, vddi, vddo,
                              t_rise, t_fall, hold)


def _quick_steps(settle: float, hold: float
                 ) -> tuple[list[InputStep], float, float, float]:
    """The two-edge quick stimulus; shared serial/batched."""
    t_rise = settle
    t_fall = settle + hold
    t_stop = t_fall + hold
    steps = [InputStep(0.2e-9, True), InputStep(1.8e-9, False),
             InputStep(t_rise, True), InputStep(t_fall, False)]
    return steps, t_rise, t_fall, t_stop


def _quick_from_result(result, probes, kind: str, vddi: float,
                       vddo: float, t_rise: float, t_fall: float,
                       hold: float) -> QuickDelays:
    """Delay/functionality extraction shared by serial and batched."""
    w_in = result.wave(probes.in_node)
    w_out = result.wave(probes.out_node)
    inverting = dut_is_inverting(kind)
    try:
        if inverting:
            d_fall = propagation_delay(w_in, w_out, vddi / 2, vddo / 2,
                                       RISE, FALL, after=t_rise - 0.05e-9)
            d_rise = propagation_delay(w_in, w_out, vddi / 2, vddo / 2,
                                       FALL, RISE, after=t_fall - 0.05e-9)
        else:
            d_rise = propagation_delay(w_in, w_out, vddi / 2, vddo / 2,
                                       RISE, RISE, after=t_rise - 0.05e-9)
            d_fall = propagation_delay(w_in, w_out, vddi / 2, vddo / 2,
                                       FALL, FALL, after=t_fall - 0.05e-9)
    except MeasurementError:
        return QuickDelays(float("nan"), float("nan"), False)

    tol = 0.08 * vddo
    high_sample = t_rise - 30e-12 if inverting else t_fall + hold * 0.9
    low_sample = t_fall - 30e-12 if inverting else t_rise - 30e-12
    functional = (w_out.value_at(high_sample) >= vddo - tol
                  and abs(w_out.value_at(low_sample)) <= tol)
    return QuickDelays(d_rise, d_fall, bool(functional))


def quick_delays_batch(lanes, transient_options=None) -> list:
    """Batched :func:`quick_delays` over N same-topology grid points.

    ``lanes`` is a sequence of ``(pdk, kind, vddi, vddo, settle, hold,
    sizing)`` tuples. Same contract as :func:`characterize_batch`:
    per-lane :class:`QuickDelays` (stalled lanes are the NaN
    non-functional value), :class:`BatchPointFailure` where the bench
    cannot be built, transparent all-serial fallback when the lanes
    cannot be stacked.
    """
    from repro.runtime.experiment import BatchPointFailure
    from repro.spice.batch import BatchTransient, BatchUnsupported

    built = []
    results: list = [None] * len(lanes)
    for pos, lane in enumerate(lanes):
        pdk, kind, vddi, vddo, settle, hold, sizing = lane
        steps, t_rise, t_fall, t_stop = _quick_steps(settle, hold)
        try:
            circuit, probes = build_testbench(pdk, kind, vddi, vddo,
                                              steps, sizing=sizing)
        except Exception as exc:  # noqa: BLE001 - quarantined per lane
            results[pos] = BatchPointFailure(stage="build", error=str(exc))
            continue
        built.append((pos, circuit, probes,
                      (kind, vddi, vddo, t_rise, t_fall, t_stop, hold)))
    if not built:
        return results

    options = transient_options or _default_transient_options()
    try:
        batch = BatchTransient([c for _, c, _, _ in built],
                               [args[5] for _, _, _, args in built],
                               options)
    except BatchUnsupported:
        for pos, lane in enumerate(lanes):
            if results[pos] is None:
                pdk, kind, vddi, vddo, settle, hold, sizing = lane
                results[pos] = quick_delays(
                    pdk, kind, vddi, vddo, settle=settle, hold=hold,
                    sizing=sizing, transient_options=transient_options)
        return results

    bres = batch.run()
    for k, (pos, _, probes, args) in enumerate(built):
        kind, vddi, vddo, t_rise, t_fall, _, hold = args
        if not bres.ok(k):
            results[pos] = QuickDelays(float("nan"), float("nan"), False)
            continue
        results[pos] = _quick_from_result(bres.lane(k), probes, kind,
                                          vddi, vddo, t_rise, t_fall,
                                          hold)
    return results


#: Experiment name for multi-kind characterization campaigns.
CHARACTERIZE_EXPERIMENT = "characterize"


def _kind_measure(params: tuple) -> ShifterMetrics:
    """Characterize one kind; shared by serial and pool paths."""
    kind, vddi, vddo, pdk, plan, load_cap, sizing, driver_scale = params
    return characterize(pdk, kind, vddi, vddo, plan=plan,
                        load_cap=load_cap, sizing=sizing,
                        driver_scale=driver_scale)


def characterize_kinds_spec(kinds, vddi: float, vddo: float, pdk=None,
                            plan: StimulusPlan | None = None,
                            load_cap: float = 1e-15, sizing=None,
                            driver_scale: float = 1.0,
                            workers: int = 1):
    """Describe a multi-kind characterization campaign declaratively."""
    from repro.runtime.experiment import ExperimentPoint, ExperimentSpec
    if pdk is None:
        from repro.pdk import Pdk
        pdk = Pdk()
    points = [ExperimentPoint(kind, (kind, vddi, vddo, pdk, plan,
                                     load_cap, sizing, driver_scale))
              for kind in kinds]
    return ExperimentSpec(
        name=CHARACTERIZE_EXPERIMENT, measure=_kind_measure,
        points=points, stage="characterize", codec="metrics", workers=workers,
        metadata={"experiment": "characterize", "kinds": list(kinds),
                  "vddi": vddi, "vddo": vddo,
                  "pdk_node": getattr(pdk, "node", "ptm90")})


def characterize_kinds(kinds, vddi: float, vddo: float, pdk=None,
                       plan: StimulusPlan | None = None,
                       load_cap: float = 1e-15, sizing=None,
                       driver_scale: float = 1.0, workers: int = 1,
                       cache=None) -> dict:
    """Characterize several kinds at one operating point.

    Returns ``kind -> ShifterMetrics``, in the order given. Routed
    through the unified experiment engine, so ``workers > 1``
    parallelizes over kinds and ``cache`` serves repeat kinds from a
    :class:`SolveCache`. A kind whose bench escapes the solver's retry
    ladder comes back as a non-functional NaN entry (matching
    :func:`characterize`'s own convergence-failure convention).
    """
    from repro.runtime.experiment import run_experiment
    spec = characterize_kinds_spec(kinds, vddi, vddo, pdk=pdk, plan=plan,
                                   load_cap=load_cap, sizing=sizing,
                                   driver_scale=driver_scale,
                                   workers=workers)
    return kinds_from_resultset(run_experiment(spec, cache=cache))


def kinds_from_resultset(resultset) -> dict:
    """``kind -> ShifterMetrics`` from a ``characterize`` run's rows; a
    kind that escaped the solver reads as non-functional NaN metrics."""
    return {row.index: row.value if row.ok else _NONFUNCTIONAL
            for row in resultset.rows}


def worst_leakage(pdk, kind: str, vddi: float, vddo: float,
                  cache=None) -> float:
    """Worst-state static leakage [A] of one cell at one pair.

    Routed through the experiment engine so a :class:`SolveCache`
    passed as ``cache`` serves repeat queries bitwise-identically to a
    live solve — the shifter planner and the floorplanner cost leakage
    through here, sharing cache entries with ``characterize_kinds``
    campaigns at the same operating point.
    """
    metrics = characterize_kinds([kind], vddi, vddo, pdk=pdk,
                                 cache=cache)[kind]
    return max(metrics.leakage_high, metrics.leakage_low)
