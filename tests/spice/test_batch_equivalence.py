"""Differential harness: the batched SPMD backend vs the serial solver.

The tolerance contract pinned here (and documented in
:mod:`repro.spice.batch`):

* **Fixed-order path — 0 ULP.** When every lane takes the same
  decisions it would take alone (the normal case: per-lane adaptive
  stepping replicates the serial state machine exactly), batched
  results are *bitwise identical* to the serial engine — times,
  states, iteration counts, and failure messages. Asserted with
  ``np.array_equal`` / ``==``, no tolerance.
* **Negative control.** Bitwise equality is not automatic for "the
  same maths" — a genuinely reordered float reduction lands on
  different bits. The control reorders the MOSFET stamp accumulation
  and shows the resulting solve exceeds 0 ULP, proving the bound above
  is tight (the backend earns it by preserving evaluation order, not
  by luck).

Plus the containment properties the batched Newton claims:

* **Lane masking** (hypothesis): running any subset of lanes yields
  bitwise the same per-lane answers as running all lanes — membership
  of the batch never perturbs a lane.
* **Fault injection**: one non-finite / diverging lane is evicted with
  the exact serial error message while its neighbors' waveforms stay
  bitwise identical to a clean run.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.characterize import quick_delays, quick_delays_batch
from repro.core.testbench import InputStep, build_testbench
from repro.errors import AnalysisError, ConvergenceError
from repro.pdk import Pdk
from repro.pdk.variation import VariationSpec, VariedPdk
from repro.spice.assembly import SolverWorkspace
import repro.spice.batch as batch_module
from repro.spice.batch import (
    BatchTransient, BatchUnsupported, LaneGroup, _solve_stack,
)
from repro.runtime import telemetry
from repro.runtime.policy import RetryPolicy
from repro.runtime.report import SolveReport
from repro.spice.devices import Dc, Pwl, Resistor
from repro.spice.devices.mosfet import Mosfet
from repro.spice.integration import (
    BACKWARD_EULER, TRAPEZOIDAL, IntegratorState,
)
from repro.spice.newton import (
    NewtonOptions, newton_solve, solve_dc, solve_stats,
)
from repro.spice.transient import Transient, TransientOptions

pytestmark = pytest.mark.batch

STEPS = [InputStep(0.2e-9, True), InputStep(1.0e-9, False)]
T_STOP = 1.5e-9
N_LANES = 4


def _options() -> TransientOptions:
    return TransientOptions(h_max=50e-12)


def _lane_circuit(k: int, seed: int = 7):
    """One MC-style lane: same topology, seeded per-lane W/L/Vt draws."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
    pdk = VariedPdk(rng, VariationSpec())
    circuit, _ = build_testbench(pdk, "sstvs", 0.8, 1.2, steps=STEPS)
    return circuit


def _lane_circuits(n: int = N_LANES, seed: int = 7):
    return [_lane_circuit(k, seed) for k in range(n)]


def max_ulp_delta(a, b) -> int:
    """Largest per-element distance in representable-float steps."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    ia, ib = a.view(np.int64), b.view(np.int64)
    # Map the sign-magnitude float bits onto a monotone integer line.
    mask = np.int64(0x7FFFFFFFFFFFFFFF)
    ia = ia ^ ((ia >> 63) & mask)
    ib = ib ^ ((ib >> 63) & mask)
    return int(np.max(np.abs(ia - ib), initial=0))


@pytest.fixture(scope="module")
def serial_results():
    """Per-lane serial runs — the ground truth for every comparison."""
    out = []
    for k in range(N_LANES):
        out.append(Transient(_lane_circuit(k), T_STOP, _options()).run())
    return out


@pytest.fixture(scope="module")
def batched_result():
    return BatchTransient(_lane_circuits(), T_STOP, _options()).run()


def _solve_delta(run):
    """``run()``'s result and the global solve counters it added."""
    before = solve_stats()
    result = run()
    after = solve_stats()
    return result, {k: after[k] - before[k] for k in after}


@pytest.fixture(scope="module")
def batched_work():
    """The :func:`batched_result` run repeated untraced and traced,
    with the work each one did."""
    def run():
        return BatchTransient(_lane_circuits(), T_STOP, _options()).run()

    _, untraced = _solve_delta(run)
    tracer = telemetry.CollectingTracer()
    with telemetry.trace(tracer):
        _, traced = _solve_delta(run)
    return untraced, traced, tracer.counters


# -- structural gate ------------------------------------------------------

class TestLaneGroupStructure:
    def test_rejects_empty_group(self):
        with pytest.raises(BatchUnsupported, match="at least one"):
            LaneGroup([])

    def test_rejects_mixed_topology(self):
        big = _lane_circuit(0)
        small, _ = build_testbench(Pdk(), "inverter", 0.8, 1.2,
                                   steps=STEPS)
        with pytest.raises(BatchUnsupported,
                           match="topology|MNA shape|stamp layout"):
            LaneGroup([big, small])

    def test_rejects_unsupported_plan(self):
        class OddResistor(Resistor):
            """A subclass the fast assembly has never heard of."""

        circuit = _lane_circuit(0)
        circuit.unfreeze()
        circuit.add(OddResistor("rodd", "out", "0", 1e6))
        circuit.finalize()
        with pytest.raises(BatchUnsupported, match="unsupported"):
            LaneGroup([_lane_circuit(0), circuit])

    def test_parameter_variation_is_allowed(self):
        group = LaneGroup(_lane_circuits(3))
        assert group.n_lanes == 3
        assert group.size == SolverWorkspace(_lane_circuit(0)).size
        # The lanes really do differ (else the harness proves nothing).
        p0, p1 = group._mos_params[8][0], group._mos_params[8][1]
        assert not np.array_equal(p0, p1)

    def test_transient_rejects_bad_t_stop(self):
        with pytest.raises(AnalysisError, match="> 0"):
            BatchTransient(_lane_circuits(2), 0.0)
        with pytest.raises(AnalysisError, match="2 lanes"):
            BatchTransient(_lane_circuits(2), [1e-9, 1e-9, 1e-9])


# -- the core differential claim: bitwise on the fixed-order path ---------

class TestBitwiseTransientParity:
    def test_every_lane_completes(self, batched_result):
        assert batched_result.n_lanes == N_LANES
        assert all(batched_result.ok(k) for k in range(N_LANES))
        assert batched_result.errors == [None] * N_LANES

    def test_times_bitwise_equal(self, batched_result, serial_results):
        for k in range(N_LANES):
            lane = batched_result.lane(k)
            assert np.array_equal(lane.times, serial_results[k].times), \
                f"lane {k} visited different time points"

    def test_states_bitwise_equal(self, batched_result, serial_results):
        for k in range(N_LANES):
            lane = batched_result.lane(k)
            serial = serial_results[k]
            assert lane._states.shape == serial._states.shape
            assert np.array_equal(lane._states, serial._states), \
                f"lane {k} states differ from serial"

    @pytest.mark.parametrize("rows", [1, 7, 16, "exact"])
    def test_history_spanning_blocks_bitwise_equal(
            self, rows, serial_results, monkeypatch):
        # Accepted rows land in preallocated history blocks; a lane
        # that fills several of them (or exactly one) must still hand
        # back exactly the serial times and states, bit for bit.
        exact = rows == "exact"
        if exact:
            rows = serial_results[0].sample_count
        monkeypatch.setattr(batch_module, "HISTORY_BLOCK", rows)
        result = BatchTransient(_lane_circuits(), T_STOP, _options()).run()
        count = result.lane(0).sample_count
        assert count == rows if exact else count > rows
        for k in range(N_LANES):
            lane, serial = result.lane(k), serial_results[k]
            for got, want in ((lane.times, serial.times),
                              (lane._states, serial._states)):
                assert got.dtype == want.dtype == np.float64
                assert got.shape == want.shape
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes(), f"lane {k}"

    def test_zero_ulp_bound_is_enforced(self, batched_result,
                                        serial_results):
        # The documented tolerance bound on the fixed-order path.
        worst = max(
            max_ulp_delta(batched_result.lane(k)._states,
                          serial_results[k]._states)
            for k in range(N_LANES))
        assert worst == 0

    def test_step_reports_match(self, batched_result, serial_results):
        for k in range(N_LANES):
            b = batched_result.lane(k).report
            s = serial_results[k].report
            assert (b.steps_accepted, b.newton_failures,
                    b.steps_rejected_dv, b.total_halvings) == \
                   (s.steps_accepted, s.newton_failures,
                    s.steps_rejected_dv, s.total_halvings), f"lane {k}"


class TestWorkPins:
    """The lane kernel's work on the 4-lane run, pinned: a change that
    keeps every bit but iterates more (or less) shows up here."""

    def test_untraced_solve_counters(self, batched_work):
        untraced, _, _ = batched_work
        assert untraced == {"solves": 1130, "iterations": 3021}

    def test_traced_solve_counters(self, batched_work):
        # Under a tracer the DC rung's failures go down the serial
        # ladder, so the traced run does a little more work.
        _, traced, _ = batched_work
        assert traced == {"solves": 1131, "iterations": 3171}

    def test_traced_batch_counters(self, batched_work):
        _, _, counters = batched_work
        assert {name: counters.get(name) for name in (
            "batch.newton.iterations", "batch.newton.lane_iterations",
            "batch.tran.super_steps", "batch.tran.steps_accepted")} == {
            "batch.newton.iterations": 919,
            "batch.newton.lane_iterations": 2826,
            "batch.tran.super_steps": 292,
            "batch.tran.steps_accepted": 1090}


# -- stacked base-matrix rebuild vs the plan's own ------------------------

def _same_bits(a, b) -> bool:
    """Bitwise equality (np.array_equal would let -0.0 match 0.0)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedBaseRebuild:
    def _check(self, group, lane_ids, be, dt, gmin):
        times = np.zeros(len(lane_ids))
        group._begin_solve_batch(np.asarray(lane_ids, dtype=np.intp),
                                 times, be, dt, gmin, 1.0)
        for pos, lane in enumerate(lane_ids):
            integrator = None if be is None else IntegratorState(
                BACKWARD_EULER if be[pos] else TRAPEZOIDAL, float(dt[pos]))
            # A fresh plan of the same circuit: the oracle's cache must
            # not be the one under test.
            plan = _lane_circuit(lane).assembly_plan()
            expected = plan.base_matrix(integrator, gmin)
            assert _same_bits(group._base_stack[lane], expected), \
                f"lane {lane} ({integrator}, gmin={gmin:g})"

    def test_transient_mixed_methods_and_dts(self):
        group = LaneGroup(_lane_circuits())
        # Mixed BE/TRAP, two lanes on one dt, then a second regime
        # where only some lanes change (the rest keep their block).
        self._check(group, [0, 1, 2, 3],
                    np.array([True, False, True, False]),
                    np.array([1e-12, 1e-12, 3.7e-12, 2.5e-13]), 1e-12)
        self._check(group, [0, 1, 2, 3],
                    np.array([False, False, True, True]),
                    np.array([1e-12, 1e-12, 3.7e-12, 4.1e-11]), 1e-12)
        self._check(group, [1, 3], np.array([True, True]),
                    np.array([6e-12, 6e-12]), 1e-12)

    def test_dc_at_every_default_gmin_rung(self):
        group = LaneGroup(_lane_circuits())
        rungs = RetryPolicy().gmin_ladder + (NewtonOptions().gmin,)
        for gmin in rungs:
            self._check(group, [0, 1, 2, 3], None, None, gmin)
        # Back to a transient regime after DC, as a transient run does.
        self._check(group, [0, 2], np.array([True, False]),
                    np.array([2e-12, 2e-12]), NewtonOptions().gmin)

    def test_untraced_lane_transient_fills_no_plan_cache(self):
        # The memory claim's oracle: the lane path keeps each lane's
        # live base in its own stack, never in the plans' LRU caches.
        run = BatchTransient(_lane_circuits(), T_STOP, _options())
        result = run.run()
        assert all(result.ok(k) for k in range(N_LANES))
        assert all(not ws.plan._base_cache for ws in run.group.workspaces)
        # Control: the serial engine on the same circuit does fill it.
        circuit = _lane_circuit(0)
        Transient(circuit, T_STOP, _options()).run()
        assert circuit.assembly_plan()._base_cache


# -- vectorized waveform sources -----------------------------------------

@pytest.mark.filterwarnings("error")
def test_one_point_pwl_lanes_is_its_constant():
    t = np.array([0.0, 2e-9])
    t_pts = np.array([1e-9])
    v_rows = np.array([[0.5], [0.7]])
    out = LaneGroup._pwl_value_lanes(t, t_pts, v_rows)
    serial = [Pwl([(1e-9, v)]).value(tk) for v, tk in zip((0.5, 0.7),
                                                           t.tolist())]
    assert out.tolist() == serial == [0.5, 0.7]


@pytest.mark.filterwarnings("error")
def test_pwl_lanes_match_serial_inside_and_outside():
    points = [(0.0, 0.0), (1e-9, 1.2), (2e-9, 0.4)]
    t = np.array([-1e-9, 0.0, 0.3e-9, 1e-9, 1.7e-9, 2e-9, 5e-9])
    t_pts = np.array([p for p, _ in points])
    v_rows = np.tile([v for _, v in points], (t.size, 1))
    out = LaneGroup._pwl_value_lanes(t, t_pts, v_rows)
    assert out.tolist() == [Pwl(points).value(tk) for tk in t.tolist()]


class TestBitwiseDcParity:
    def test_solve_dc_matches_serial_ladder(self):
        # The sstvs bench DC needs the retry ladder (plain Newton from
        # zero exhausts its budget), so this pins the eviction path:
        # every lane falls back to the serial ladder and lands bitwise
        # on the serial answer.
        circuits = _lane_circuits(3)
        group = LaneGroup(circuits)
        X, reports, errors = group.solve_dc()
        assert errors == [None, None, None]
        for k in range(3):
            x_serial = solve_dc(_lane_circuit(k))
            assert np.array_equal(X[k], x_serial), f"lane {k}"

    def test_batched_rung_matches_serial_from_good_seed(self):
        # From a seed near the operating point the plain batched rung
        # converges without eviction — bitwise the serial newton_solve.
        circuits = _lane_circuits(3)
        seeds = np.stack([solve_dc(_lane_circuit(k)) for k in range(3)])
        group = LaneGroup(circuits)
        res = group.newton(np.arange(3), seeds)
        assert res.converged.all()
        for k in range(3):
            x_serial = newton_solve(_lane_circuit(k), seeds[k].copy())
            assert np.array_equal(res.x[k], x_serial), f"lane {k}"

    def test_exhaustion_message_matches_serial(self):
        opts = NewtonOptions(max_iterations=2)
        circuits = _lane_circuits(2)
        group = LaneGroup(circuits)
        res = group.newton(np.arange(2), np.zeros((2, group.size)),
                           options=opts)
        assert not res.converged.any()
        for k in range(2):
            with pytest.raises(ConvergenceError) as err:
                newton_solve(_lane_circuit(k), np.zeros(group.size),
                             options=opts)
            # String equality implies the last-dV float matched too.
            assert res.errors[k] == str(err.value)
            assert res.iterations[k] == 2


class TestQuickDelaysParity:
    def test_batched_grid_points_bitwise_equal_serial(self):
        pdk = Pdk()
        points = [(0.8, 1.2), (1.0, 1.0), (1.2, 0.8)]
        lanes = [(pdk, "sstvs", vddi, vddo, 3.0e-9, 2.5e-9, None)
                 for vddi, vddo in points]
        batched = quick_delays_batch(lanes)
        for (vddi, vddo), q in zip(points, batched):
            serial = quick_delays(pdk, "sstvs", vddi, vddo)
            # Frozen-dataclass equality: delays bit-equal, same flag.
            assert q == serial, f"({vddi}, {vddo})"


# -- negative control: the 0-ULP bound is tight ---------------------------

def test_negative_control_reordered_reduction_exceeds_zero_ulp():
    """A genuinely reordered accumulation does NOT stay bitwise equal.

    Re-stamp the MOSFET contributions of a real iterate in reversed
    device order — mathematically the same sums — and the assembled
    system plus its solve drift by at least one ULP. This is what the
    batched backend's lane-major scatter layout exists to avoid; if
    this control ever passes at 0 ULP, the bitwise assertions above
    have lost their teeth.
    """
    circuit = _lane_circuit(0)
    ws = SolverWorkspace(circuit)
    mg = ws.plan.mosfet_group
    rng = np.random.default_rng(20080310)
    x = rng.uniform(-0.2, 1.4, ws.size)

    ws.begin_solve(0.0, None, 1e-12, 1.0)
    ws.assemble_iteration(x)
    matrix_fwd = ws.system.matrix.copy()
    rhs_fwd = ws.system.rhs.copy()

    # Rebuild the same matrix but scatter the per-device stamp values
    # in reversed order. Shared nodes (the supply and output rails)
    # accumulate the same addends in a different sequence.
    naug = ws._base.shape[0]
    flat = ws._base.copy().reshape(-1)
    rhs = ws._rhs_base.copy()
    x_aug = np.append(x, 0.0)
    from repro.spice.devices.mosfet import ekv_evaluate
    vd, vg, vs, vb = (x_aug[mg.d], x_aug[mg.g], x_aug[mg.s], x_aug[mg.b])
    id_real, gdd, gdg, gds_, gdb = ekv_evaluate(
        mg.sign, mg.vto, mg.n_slope, mg.ut, mg.gamma, mg.phi,
        mg.eta_dibl, mg.lambda_clm, mg.ispec, vd, vg, vs, vb)
    mv = np.empty((mg.n, 12))
    mv[:, 0], mv[:, 2], mv[:, 4], mv[:, 6] = gdd, gdg, gds_, gdb
    np.negative(mv[:, 0:8:2], out=mv[:, 1:8:2])
    mv[:, 8:10], mv[:, 10:12] = 1e-12, -1e-12
    r = gdd * vd + gdg * vg + gds_ * vs + gdb * vb - id_real
    rv = np.stack([r, -r], axis=1)
    np.add.at(flat, mg.mat_flat.reshape(mg.n, 12)[::-1].ravel(),
              mv[::-1].ravel())
    np.add.at(rhs, mg.rhs_rows.reshape(mg.n, 2)[::-1].ravel(),
              rv[::-1].ravel())
    size = ws.size
    matrix_rev = flat.reshape(naug, naug)[:size, :size]
    rhs_rev = rhs[:size]

    assembled_ulp = max(max_ulp_delta(matrix_fwd, matrix_rev),
                        max_ulp_delta(rhs_fwd, rhs_rev))
    assert assembled_ulp > 0, \
        "reversed accumulation unexpectedly bit-identical"

    x_f = _solve_stack(matrix_fwd[None], rhs_fwd[None])[0]
    x_r = _solve_stack(matrix_rev[None], rhs_rev[None])[0]
    solve_ulp = max_ulp_delta(x_f, x_r)
    assert solve_ulp > 0
    # ...while staying numerically indistinguishable: the control
    # demonstrates order-sensitivity of bits, not of physics.
    np.testing.assert_allclose(x_r, x_f, rtol=1e-9, atol=1e-12)


# -- lane-masking property: batch membership never perturbs a lane --------

class TestLaneMasking:
    @given(mask=st.lists(st.booleans(), min_size=N_LANES,
                         max_size=N_LANES).filter(any))
    @settings(max_examples=10, deadline=None)
    def test_dc_subset_bitwise_equal_full_batch(self, mask):
        subset = [k for k in range(N_LANES) if mask[k]]
        # From zero the sstvs DC exhausts plain Newton — deliberately:
        # masking must hold on the failure trajectory too (150 damped
        # iterations per lane), not just for quick converging solves.
        group = LaneGroup(_lane_circuits())
        full = group.newton(np.arange(N_LANES),
                            np.zeros((N_LANES, group.size)))
        part = group.newton(np.asarray(subset),
                            np.zeros((len(subset), group.size)))
        for pos, k in enumerate(subset):
            assert np.array_equal(part.x[pos], full.x[k]), f"lane {k}"
            assert part.converged[pos] == full.converged[k]
            assert part.iterations[pos] == full.iterations[k]
            assert part.errors[pos] == full.errors[k]

    @given(mask=st.lists(st.booleans(), min_size=N_LANES,
                         max_size=N_LANES).filter(any))
    @settings(max_examples=5, deadline=None)
    def test_transient_subset_bitwise_equal_full_batch(
            self, mask, batched_result):
        subset = [k for k in range(N_LANES) if mask[k]]
        circuits = [_lane_circuit(k) for k in subset]
        part = BatchTransient(circuits, T_STOP, _options()).run()
        for pos, k in enumerate(subset):
            assert part.ok(pos)
            assert np.array_equal(part.lane(pos).times,
                                  batched_result.lane(k).times)
            assert np.array_equal(part.lane(pos)._states,
                                  batched_result.lane(k)._states)


# -- fault injection: a dying lane cannot poison its neighbors ------------

def _poison(circuit) -> None:
    """Make the DUT supply non-finite: DC cannot produce finite rows."""
    for device in circuit:
        if device.name == "vdut":
            device.shape = Dc(float("nan"))
            return
    raise AssertionError("testbench has no vdut supply")


class TestFaultContainment:
    @pytest.fixture(scope="class")
    def poisoned_run(self):
        circuits = _lane_circuits()
        _poison(circuits[1])
        return BatchTransient(circuits, T_STOP, _options()).run()

    def test_poisoned_lane_dies_with_serial_message(self, poisoned_run):
        assert not poisoned_run.ok(1)
        poisoned = _lane_circuit(1)
        _poison(poisoned)
        with pytest.raises(ConvergenceError) as err:
            Transient(poisoned, T_STOP, _options()).run()
        assert poisoned_run.errors[1] == str(err.value)
        with pytest.raises(ConvergenceError):
            poisoned_run.lane(1)

    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    def test_poisoned_lane_error_carries_serial_report(self, poisoned_run,
                                                       traced):
        # Untraced, the DC ladder runs batched; traced, the lane is
        # evicted to the serial ladder. Either way the lane's error
        # carries the failed ladder's report, as the serial one does.
        poisoned = _lane_circuit(1)
        _poison(poisoned)
        with pytest.raises(ConvergenceError) as serial:
            Transient(poisoned, T_STOP, _options()).run()
        run = poisoned_run
        if traced:
            circuits = _lane_circuits(2)
            _poison(circuits[1])
            with telemetry.trace(telemetry.CollectingTracer()):
                run = BatchTransient(circuits, T_STOP, _options()).run()
        with pytest.raises(ConvergenceError) as lane:
            run.lane(1)
        assert str(lane.value) == str(serial.value)
        ours, theirs = lane.value.report, serial.value.report
        assert type(ours) is type(theirs) is SolveReport
        assert ours.strategy_summary() == theirs.strategy_summary()

        def attempts(report):
            return [(a.strategy, a.detail, a.iterations, a.converged)
                    for a in report.attempts]
        assert attempts(ours) == attempts(theirs)

    def test_neighbors_stay_bitwise_clean(self, poisoned_run,
                                          serial_results):
        for k in (0, 2, 3):
            assert poisoned_run.ok(k)
            lane = poisoned_run.lane(k)
            assert np.array_equal(lane.times, serial_results[k].times)
            assert np.array_equal(lane._states,
                                  serial_results[k]._states), \
                f"lane {k} perturbed by the dying lane"

    def test_nan_iterate_evicts_only_its_lane(self):
        group = LaneGroup(_lane_circuits(3))
        x0 = np.zeros((3, group.size))
        clean = group.newton(np.arange(3), x0)
        x0[1, 0] = np.nan
        mixed = group.newton(np.arange(3), x0)
        assert not mixed.converged[1]
        assert "non-finite solution at iteration 0" in mixed.errors[1]
        for k in (0, 2):
            assert np.array_equal(mixed.x[k], clean.x[k])
            assert mixed.converged[k] == clean.converged[k]
            assert mixed.errors[k] == clean.errors[k]

    def test_leaving_lanes_keep_their_exit_rows(self):
        # One lane converges at once, one exhausts the budget, and one
        # (MOSFETs at 1e-200 K: the EKV current is 0 * inf once a
        # device turns on) goes non-finite mid-call. Each lane's row is
        # the iterate it held when it left; the digests were recorded
        # before the alive set was kept compact.
        circuits = _lane_circuits(3)
        for device in circuits[2]:
            if type(device) is Mosfet:
                device.params = dataclasses.replace(device.params,
                                                    temperature=1e-200)
        group = LaneGroup(circuits)
        x0 = np.zeros((3, group.size))
        x0[0] = solve_dc(_lane_circuit(0))
        res = group.newton(np.arange(3), x0,
                           options=NewtonOptions(max_iterations=12))
        assert res.converged.tolist() == [True, False, False]
        assert res.iterations.tolist() == [1, 12, 2]
        assert res.errors == [
            None,
            "Newton failed to converge in 12 iterations "
            "(last max dV = 3.388e-02 V)",
            "non-finite solution at iteration 2"]
        digests = [hashlib.sha256(",".join(
            float(v).hex() for v in row).encode()).hexdigest()
            for row in res.x]
        assert digests == [
            "47205384f942176626d8b6a0bf9e3695"
            "dfc53beecbae283dfdcafcb56d8e8614",
            "a949b04ef0596f4cdc8c9bd601e67ebb"
            "6e069e61d5e8cf82c2ba8879bd764f66",
            "66156677faf1c1b5bf6c3ca94e265171"
            "ed70add7fe6d2d51b2152d36b27c00ad"]
        # The converged lane is bitwise the serial solve.
        assert np.array_equal(res.x[0], newton_solve(
            _lane_circuit(0), x0[0].copy(),
            options=NewtonOptions(max_iterations=12)))


# -- eviction to the serial ladder ---------------------------------------

def test_solve_dc_evicts_failed_lane_to_serial_ladder():
    circuits = _lane_circuits(3)
    _poison(circuits[1])
    group = LaneGroup(circuits)
    X, reports, errors = group.solve_dc()
    # The poisoned lane went through the serial ladder and still lost;
    # its error text is the ladder's, not the batched rung's.
    assert errors[1] is not None
    assert errors[0] is None and errors[2] is None
    for k in (0, 2):
        assert np.array_equal(X[k], solve_dc(_lane_circuit(k)))


# -- shared interpolation grid -------------------------------------------

class TestSharedGrid:
    def test_shape_and_endpoints(self, batched_result, serial_results):
        grid, states = batched_result.shared_grid(samples=64)
        assert grid.shape == (64,)
        assert states.shape == (N_LANES, 64,
                                serial_results[0]._states.shape[1])
        assert np.isfinite(states).all()
        assert grid[0] == 0.0
        for k in range(N_LANES):
            # t=0 sits on every lane's native grid: no interpolation.
            assert np.array_equal(states[k, 0],
                                  serial_results[k]._states[0])

    def test_dead_lane_rows_are_nan(self):
        circuits = _lane_circuits(2)
        _poison(circuits[1])
        result = BatchTransient(circuits, T_STOP, _options()).run()
        grid, states = result.shared_grid(samples=16)
        assert np.isnan(states[1]).all()
        assert np.isfinite(states[0]).all()

    def test_matches_manual_interp(self, batched_result):
        grid, states = batched_result.shared_grid(samples=32)
        lane = batched_result.lane(2)
        expected = np.interp(grid, lane.times, lane._states[:, 0])
        assert np.array_equal(states[2, :, 0], expected)
