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
from repro.spice.devices import Dc, Resistor
from repro.spice.newton import NewtonOptions, newton_solve, solve_dc
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
        res = group.newton(np.arange(3), seeds, times=[0.0] * 3,
                           integrators=[None] * 3)
        assert res.converged.all()
        for k in range(3):
            x_serial = newton_solve(_lane_circuit(k), seeds[k].copy())
            assert np.array_equal(res.x[k], x_serial), f"lane {k}"

    def test_exhaustion_message_matches_serial(self):
        opts = NewtonOptions(max_iterations=2)
        circuits = _lane_circuits(2)
        group = LaneGroup(circuits)
        res = group.newton(np.arange(2), np.zeros((2, group.size)),
                           times=[0.0, 0.0], integrators=[None, None],
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
                            np.zeros((N_LANES, group.size)),
                            times=[0.0] * N_LANES,
                            integrators=[None] * N_LANES)
        part = group.newton(np.asarray(subset),
                            np.zeros((len(subset), group.size)),
                            times=[0.0] * len(subset),
                            integrators=[None] * len(subset))
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
        clean = group.newton(np.arange(3), x0, times=[0.0] * 3,
                             integrators=[None] * 3)
        x0[1, 0] = np.nan
        mixed = group.newton(np.arange(3), x0, times=[0.0] * 3,
                             integrators=[None] * 3)
        assert not mixed.converged[1]
        assert "non-finite solution at iteration 0" in mixed.errors[1]
        for k in (0, 2):
            assert np.array_equal(mixed.x[k], clean.x[k])
            assert mixed.converged[k] == clean.converged[k]
            assert mixed.errors[k] == clean.errors[k]


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
