"""Differential harness: the sparse pattern-reuse LU vs the dense path.

The tolerance contract pinned here (and documented in
:mod:`repro.spice.sparse`):

* **Same-kernel path — 0 ULP.** Serial and batched Newton running the
  *same* kernel (both sparse or both dense) are bitwise identical:
  :func:`repro.spice.sparse.resolve_solver` is deterministic in
  (mode, system size) alone, and the sparse numeric phase applies
  identical per-lane float operations regardless of batch membership.
* **Cross-kernel bound — :data:`SPARSE_VS_DENSE_ULP` ULP.** Sparse and
  dense solve the same system through different elimination orders, so
  their solutions agree only to a small ULP bound on well-conditioned
  systems. The hypothesis properties below pin that bound across
  random patterned systems and across the real testbench's DC /
  gmin-ladder / transient regimes.
* **Negative control.** A perturbation well inside engineering
  tolerance (1 part in 1e6) blows through the bound by orders of
  magnitude, proving the ULP metric and the bound are tight enough to
  catch a genuinely different answer — the bound is not vacuous.
* **Singular lanes.** A numerically singular lane surfaces as a
  non-finite solution under suppressed FP flags — the dense gufunc's
  convention — and never perturbs its neighbors' bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError, ConvergenceError
from repro.pdk.variation import VariationSpec, VariedPdk
from repro.core.testbench import InputStep, build_testbench
from repro.spice.assembly import SolverWorkspace
from repro.spice.batch import BatchTransient, LaneGroup, _solve_stack
from repro.spice.newton import NewtonOptions, newton_solve, solve_dc
from repro.spice.sparse import (
    SPARSE_AUTO_THRESHOLD, SparsePlan, SparseUnsupported, ambient_solver,
    resolve_solver, solver_scope, sparse_plan_for, structural_pattern,
    validate_solver,
)
from repro.spice.transient import Transient, TransientOptions

pytestmark = pytest.mark.batch

#: Documented sparse-vs-dense agreement bound (in representable-float
#: steps) for well-conditioned systems. Different elimination order =
#: different rounding; this is the measured envelope with margin, and
#: the negative control shows a real discrepancy lands far beyond it.
SPARSE_VS_DENSE_ULP = 4096

#: The same bound for the *real* MNA testbench system, whose mixed
#: volt/ampere scaling puts its condition number near 1e11 — the
#: cross-kernel distance is condition-limited there (measured worst
#: ~1.4e6 ULP across seeds). Still tight: a relative rhs perturbation
#: of just 1e-9 lands at ~7.9e6 ULP, beyond this bound (the negative
#: control in TestTestbenchRegimes).
SPARSE_VS_DENSE_ULP_MNA = 2 ** 22

STEPS = [InputStep(0.2e-9, True), InputStep(1.0e-9, False)]
T_STOP = 1.5e-9


def max_ulp_delta(a, b) -> int:
    """Largest per-element distance in representable-float steps."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    ia, ib = a.view(np.int64), b.view(np.int64)
    mask = np.int64(0x7FFFFFFFFFFFFFFF)
    ia = ia ^ ((ia >> 63) & mask)
    ib = ib ^ ((ib >> 63) & mask)
    return int(np.max(np.abs(ia - ib), initial=0))


def _lane_circuit(k: int, seed: int = 7):
    rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
    pdk = VariedPdk(rng, VariationSpec())
    circuit, _ = build_testbench(pdk, "sstvs", 0.8, 1.2, steps=STEPS)
    return circuit


def _patterned_system(rng, n: int, density: float):
    """A random diagonally-dominant system confined to a random pattern."""
    pattern = rng.random((n, n)) < density
    np.fill_diagonal(pattern, True)
    values = rng.standard_normal((n, n)) * pattern
    values += np.eye(n) * (2.0 * n)  # dominance keeps conditioning tame
    rhs = rng.standard_normal(n)
    return pattern, values, rhs


# -- selection rule -------------------------------------------------------

class TestSolverSelection:
    def test_auto_is_deterministic_in_size_alone(self):
        assert resolve_solver("auto", SPARSE_AUTO_THRESHOLD - 1) == "dense"
        assert resolve_solver("auto", SPARSE_AUTO_THRESHOLD) == "sparse"
        assert resolve_solver("dense", 10 ** 6) == "dense"
        assert resolve_solver("sparse", 2) == "sparse"

    def test_invalid_mode_rejected(self):
        with pytest.raises(AnalysisError, match="solver must be one of"):
            validate_solver("cholesky")

    def test_scope_composes_and_restores(self):
        assert ambient_solver() == "auto"
        with solver_scope("sparse"):
            assert ambient_solver() == "sparse"
            with solver_scope(None):
                assert ambient_solver() == "sparse"
            with solver_scope("dense"):
                assert ambient_solver() == "dense"
        assert ambient_solver() == "auto"


# -- hypothesis: sparse vs dense within the bound, any pattern ------------

class TestSparseVsDenseBound:
    @given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(3, 24),
           density=st.floats(0.15, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_single_system_within_bound(self, seed, n, density):
        rng = np.random.default_rng(seed)
        pattern, values, rhs = _patterned_system(rng, n, density)
        plan = SparsePlan(pattern)
        x_sparse = plan.solve1(values, rhs)
        x_dense = _solve_stack(values[None], rhs[None])[0]
        assert np.isfinite(x_sparse).all()
        assert max_ulp_delta(x_sparse, x_dense) <= SPARSE_VS_DENSE_ULP

    @given(seed=st.integers(0, 2 ** 31 - 1), lanes=st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_lane_stack_bitwise_invariant_to_membership(self, seed,
                                                        lanes):
        # The 0-ULP half of the contract: batching never perturbs a
        # lane's sparse solution, exactly like the dense gufunc.
        rng = np.random.default_rng(seed)
        pattern, _, _ = _patterned_system(rng, 12, 0.4)
        plan = SparsePlan(pattern)
        # Every lane gets its own values confined to the shared pattern.
        mats = rng.standard_normal((lanes, 12, 12)) * pattern
        mats += np.eye(12) * 24.0
        rhs = rng.standard_normal((lanes, 12))
        full = plan.solve(mats, rhs)
        for k in range(lanes):
            alone = plan.solve1(mats[k], rhs[k])
            assert np.array_equal(full[k], alone), f"lane {k}"

    def test_negative_control_bound_is_tight(self):
        # A perturbation far below engineering tolerance exceeds the
        # ULP bound by orders of magnitude: agreement to
        # SPARSE_VS_DENSE_ULP is a meaningful statement, not slack.
        rng = np.random.default_rng(20080310)
        pattern, values, rhs = _patterned_system(rng, 16, 0.5)
        plan = SparsePlan(pattern)
        x = plan.solve1(values, rhs)
        x_perturbed = plan.solve1(values, rhs * (1.0 + 1e-6))
        assert max_ulp_delta(x, x_perturbed) > SPARSE_VS_DENSE_ULP

    def test_structurally_singular_pattern_rejected(self):
        pattern = np.zeros((3, 3), dtype=bool)
        pattern[0, 0] = pattern[1, 0] = pattern[2, 1] = True
        with pytest.raises(SparseUnsupported, match="singular"):
            SparsePlan(pattern)


# -- singular lanes -------------------------------------------------------

class TestSingularLanes:
    def test_numerically_singular_lane_yields_nonfinite(self):
        rng = np.random.default_rng(3)
        pattern, values, rhs = _patterned_system(rng, 10, 0.5)
        plan = SparsePlan(pattern)
        stack = np.stack([values, values.copy(), values])
        stack[1, 4, :] = 0.0  # zero pivot row: numerically singular
        rhs3 = np.stack([rhs, rhs, rhs])
        saved = np.seterr(invalid="ignore", over="ignore",
                          divide="ignore")
        try:
            out = plan.solve(stack, rhs3)
        finally:
            np.seterr(**saved)
        clean = plan.solve1(values, rhs)
        # The sick lane surfaces as non-finite entries (the dense
        # gufunc convention); the healthy lanes are bitwise untouched.
        assert not np.isfinite(out[1]).all()
        assert np.array_equal(out[0], clean)
        assert np.array_equal(out[2], clean)

    def test_batched_newton_classifies_singular_like_dense(self):
        # A NaN supply makes the first iterate non-finite under either
        # kernel; the failure text must match the dense path's exactly.
        circuits = [_lane_circuit(0), _lane_circuit(1)]
        group_s = LaneGroup(circuits)
        x0 = np.zeros((2, group_s.size))
        x0[1, 0] = np.nan
        res_sparse = group_s.newton(
            np.arange(2), x0.copy(),
            options=NewtonOptions(solver="sparse"))
        group_d = LaneGroup([_lane_circuit(0), _lane_circuit(1)])
        res_dense = group_d.newton(
            np.arange(2), x0.copy(),
            options=NewtonOptions(solver="dense"))
        assert not res_sparse.converged[1] and not res_dense.converged[1]
        assert res_sparse.errors[1] == res_dense.errors[1]
        assert "non-finite solution at iteration 0" in res_sparse.errors[1]


# -- the real testbench: DC / gmin ladder / transient regimes -------------

class TestTestbenchRegimes:
    def test_pattern_covers_every_stamped_position(self):
        ws = SolverWorkspace(_lane_circuit(0))
        pattern = structural_pattern(ws.plan)
        assert pattern is not None
        plan = sparse_plan_for(ws.plan)
        assert plan is not None and plan.n == ws.size
        # Assemble a real iterate both regimes; no value may land
        # outside the symbolic pattern (the factorization would be
        # silently wrong, not just slow).
        rng = np.random.default_rng(11)
        x = rng.uniform(-0.2, 1.4, ws.size)
        for integ in (None,):
            ws.begin_solve(0.0, integ, 1e-10, 1.0)
            ws.assemble_iteration(x)
            outside = ws.system.matrix[~pattern]
            assert np.all(outside == 0.0)

    def test_serial_vs_batched_sparse_dc_bitwise(self):
        # Same kernel on both sides -> the harness's 0-ULP claim holds
        # for the sparse path exactly as the dense one.
        opts = NewtonOptions(solver="sparse")
        circuits = [_lane_circuit(k) for k in range(3)]
        seeds = np.stack([solve_dc(_lane_circuit(k)) for k in range(3)])
        group = LaneGroup(circuits)
        res = group.newton(np.arange(3), seeds.copy(), options=opts)
        assert res.converged.all()
        for k in range(3):
            x_serial = newton_solve(_lane_circuit(k), seeds[k].copy(),
                                    options=opts)
            assert np.array_equal(res.x[k], x_serial), f"lane {k}"

    def test_single_solve_on_real_system_within_bound(self):
        # The ULP bound is a per-linear-solve claim; Newton fixed
        # points across kernels agree only to the convergence
        # tolerance (each kernel walks its own iterate path). Assemble
        # the real Jacobian at the DC operating point and solve it
        # once through both kernels.
        circuit = _lane_circuit(0)
        x_op = solve_dc(circuit)
        ws = SolverWorkspace(circuit)
        ws.begin_solve(0.0, None, 1e-12, 1.0)
        ws.assemble_iteration(x_op)
        matrix = ws.system.matrix.copy()
        rhs = ws.system.rhs.copy()
        x_dense = _solve_stack(matrix[None], rhs[None])[0]
        plan = sparse_plan_for(ws.plan)
        x_sparse = plan.solve1(matrix, rhs)
        assert np.isfinite(x_sparse).all()
        assert max_ulp_delta(x_sparse, x_dense) <= SPARSE_VS_DENSE_ULP_MNA
        # Negative control at the real system's conditioning: a 1e-9
        # relative rhs change exceeds the bound, so agreement within
        # it distinguishes same-system solutions from different ones.
        x_perturbed = plan.solve1(matrix, rhs * (1.0 + 1e-9))
        assert max_ulp_delta(x_sparse, x_perturbed) > \
            SPARSE_VS_DENSE_ULP_MNA

    def test_sparse_dc_fixed_point_near_dense(self):
        circuits = [_lane_circuit(k) for k in range(2)]
        seeds = np.stack([solve_dc(_lane_circuit(k)) for k in range(2)])
        group = LaneGroup(circuits)
        dense = group.newton(np.arange(2), seeds.copy(),
                             options=NewtonOptions(solver="dense"))
        sparse = group.newton(np.arange(2), seeds.copy(),
                              options=NewtonOptions(solver="sparse"))
        assert dense.converged.all() and sparse.converged.all()
        np.testing.assert_allclose(sparse.x, dense.x, rtol=1e-7,
                                   atol=1e-9)

    def test_gmin_ladder_sparse_outcome_matches_serial(self):
        # Across the gmin ladder's rungs the serial and batched sparse
        # paths must agree on the *outcome* — bitwise solutions where
        # Newton converges, identical failure classification where it
        # does not (harsh gmin from a far seed legitimately diverges).
        opts = NewtonOptions(solver="sparse")
        circuit = _lane_circuit(2)
        group = LaneGroup([_lane_circuit(2)])
        outcomes = []
        for gmin in (1e-6, 1e-11, 1e-12, 1e-13):
            seed = solve_dc(_lane_circuit(2))
            res = group.newton(np.arange(1), seed[None].copy(),
                               options=opts, gmin=gmin)
            try:
                x_serial = newton_solve(circuit, seed.copy(),
                                        options=opts, gmin=gmin)
            except ConvergenceError as err:
                assert not res.converged[0], f"gmin {gmin}"
                assert res.errors[0] == str(err), f"gmin {gmin}"
                outcomes.append("failed")
            else:
                assert res.converged[0], f"gmin {gmin}"
                assert np.array_equal(res.x[0], x_serial), f"gmin {gmin}"
                outcomes.append("converged")
        # The ladder's easy rungs must actually exercise the bitwise
        # branch, or this test proves nothing.
        assert outcomes.count("converged") >= 2

    def test_transient_sparse_serial_vs_batched_bitwise(self):
        opts = TransientOptions(h_max=50e-12,
                                newton=NewtonOptions(solver="sparse"))
        circuits = [_lane_circuit(k) for k in range(2)]
        batched = BatchTransient(circuits, T_STOP, opts).run()
        assert batched.ok(0) and batched.ok(1)
        for k in range(2):
            serial = Transient(_lane_circuit(k), T_STOP, opts).run()
            lane = batched.lane(k)
            assert np.array_equal(lane.times, serial.times), f"lane {k}"
            assert np.array_equal(lane._states, serial._states), \
                f"lane {k}"

    def test_transient_sparse_within_bound_of_dense(self):
        sparse_opts = TransientOptions(
            h_max=50e-12, newton=NewtonOptions(solver="sparse"))
        dense_opts = TransientOptions(
            h_max=50e-12, newton=NewtonOptions(solver="dense"))
        sparse = Transient(_lane_circuit(0), T_STOP, sparse_opts).run()
        dense = Transient(_lane_circuit(0), T_STOP, dense_opts).run()
        # Different rounding -> possibly different adaptive paths; the
        # claim is numerical agreement wherever both engines sampled.
        grid = np.linspace(0.0, T_STOP, 64)
        for col in range(sparse._states.shape[1]):
            a = np.interp(grid, sparse.times, sparse._states[:, col])
            b = np.interp(grid, dense.times, dense._states[:, col])
            np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-9)
