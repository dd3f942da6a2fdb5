"""Batched SPMD execution of same-topology circuits.

Every campaign in this repository (Monte Carlo, the VDDI×VDDO grids,
PVT corners) simulates the *same* netlist topology over and over with
only parameter values changing: W/L/Vt from the variation model, the
supply voltages, the temperature. This module stacks N such circuits
into *lanes* of 3-D ndarrays and drives them together:

* :class:`LaneGroup` checks the lanes are structurally identical
  (same MNA size, same MOSFET stamp layout) and owns the stacked
  buffers — one ``(L, naug, naug)`` matrix block, one batched EKV
  parameter set, a base-matrix stack holding each lane's live base,
  stacked RHS and capacitor state. In a uniform group (one RHS, base
  and capacitor layout, no inductors) a solve's stale bases are
  rebuilt in one stacked pass from the lanes' COO templates, so no
  :class:`~repro.spice.assembly.AssemblyPlan` base cache is filled;
  otherwise each lane's :class:`~repro.spice.assembly.SolverWorkspace`
  sets up its solve as the serial path does.
* :meth:`LaneGroup.newton` runs a lane-masked damped Newton: one
  vectorized EKV evaluation over all active lanes, one ``np.add.at``
  scatter, and one batched LAPACK ``solve`` per iteration. A solve's
  regime is arrays — per-lane times, a backward-Euler mask and the
  step sizes (neither for DC) — and the alive lanes' iterates, bases,
  RHS bases and EKV parameters stay compact, re-gathered only when a
  lane leaves. Converged and diverged lanes drop out of the active
  set immediately, so a straggler never costs the finished lanes
  anything and a diverging lane cannot poison its neighbors (each
  lane occupies its own matrix block; LAPACK factorizes the blocks
  independently).
* :meth:`LaneGroup.solve_dc` sends lanes that plain batched Newton
  cannot crack down the RetryPolicy ladder. Untraced runs without a
  fault plan or a wall-clock/iteration budget replay that ladder
  batched, one lane-masked Newton call per gmin or source-ramp rung,
  landing each lane bitwise where the serial ladder would; otherwise
  lanes are evicted one at a time to the serial ladder
  (:func:`~repro.spice.newton.solve_dc_report` with the lane's own
  workspace), exactly as robust as before.
* :class:`BatchTransient` marches all lanes with *per-lane* adaptive
  timesteps: each lane keeps its own t/h/breakpoint/halving state and
  the group solves one batched Newton per super-step over whatever
  (t_i, h_i, method_i) each lane wants next. A lane that stalls is
  marked dead (the serial engine would raise
  :class:`~repro.errors.ConvergenceError`) without stopping the rest.
  Each lane's accepted ``(t, x)`` rows go into preallocated float64
  history blocks and become its exact-size ``times``/``states`` arrays
  once, when the run ends.

**Equivalence contract.** On the fixed-order path — every lane taking
the same decisions it would take alone — the batched backend is
*bitwise identical* to the serial solver, and
``tests/spice/test_batch_equivalence.py`` enforces exactly that. The
ingredients: the stacked base and RHS rebuilds replay each lane's
serial COO templates (the plan's own values, the serial companion
expressions, the same ``np.add.at`` order per lane), and the
non-uniform path calls ``begin_solve`` itself; the stacked EKV
evaluation calls the same elementwise kernel (numpy ufuncs are
value-deterministic across array shapes); the ``np.add.at`` scatter
is laid out lane-major so each lane's accumulation sub-order matches
the serial device-major order; and the batched LAPACK ``solve``
gufunc factorizes each ``(n, n)`` block with the same routine the
serial path uses, yielding bit-equal solutions per lane. The
documented tolerance bound (0 ULP on this path) is therefore
*test-enforced, not aspirational*; the harness carries a negative
control showing a genuinely reordered reduction does exceed it.

Structural prerequisites are strict on purpose: all lanes must share a
supported :class:`~repro.spice.assembly.AssemblyPlan` (no opaque
devices, identical MOSFET/index layout). Anything else raises
:class:`BatchUnsupported` and callers fall back to the serial path —
the same downgrade-for-safety convention the cached assembly uses.

With an ambient :class:`~repro.runtime.telemetry.Tracer` active the
group emits ``batch.*`` counters (lanes entered, batched iterations,
evictions, transient steps); with tracing disabled each site costs one
global read, preserving the NullTracer ≤2 % contract.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import AnalysisError, ConvergenceError
from repro.runtime import telemetry
from repro.runtime.faults import active_plan
from repro.runtime.policy import RetryPolicy
from repro.runtime.report import AttemptRecord, SolveReport, TransientReport
from repro.spice.assembly import SolverWorkspace
from repro.spice.devices.sources import (
    CurrentSource, Dc, Pulse, Pwl, VoltageSource,
)
from repro.spice.integration import (
    BACKWARD_EULER, TRAPEZOIDAL, IntegratorState,
)
from repro.spice.newton import (
    NewtonOptions, add_solve_stats, solve_dc_report,
)
from repro.spice.sparse import resolve_solver, sparse_plan_for
from repro.spice.transient import TransientOptions, TransientResult

try:  # pragma: no cover - version-dependent private module
    # Same gufunc the serial Newton loop uses; on a (L, n, n) stack it
    # factorizes each block independently with the identical LAPACK
    # routine, so per-lane solutions are bit-equal to serial calls.
    from numpy.linalg._umath_linalg import solve1 as _lapack_solve1
except ImportError:  # pragma: no cover
    _lapack_solve1 = None


class BatchUnsupported(AnalysisError):
    """The lanes cannot be stacked; callers should run serially."""


@dataclass
class BatchNewtonResult:
    """Per-lane outcome of one lane-masked batched Newton call."""

    #: Solutions, shape ``(lanes, size)``; rows valid where converged.
    x: np.ndarray
    #: Per-lane convergence flags.
    converged: np.ndarray
    #: Per-lane iteration counts (at convergence or failure).
    iterations: np.ndarray
    #: Per-lane failure messages (None where converged), matching the
    #: serial solver's ConvergenceError messages.
    errors: list
    #: Per-lane last raw update magnitude — the serial loop's ``max_dv``
    #: at exit — used to fill :class:`AttemptRecord.residual` exactly as
    #: the serial ladder would (None semantics: see the record field).
    last_dv: np.ndarray = None


#: Rows per preallocated block of a lane's transient history.
HISTORY_BLOCK = 256


class _LaneHistory:
    """One lane's accepted ``(t, x)`` rows in preallocated float64
    blocks of :data:`HISTORY_BLOCK` rows, so a step costs one row of
    floats rather than a fresh ndarray per state."""

    __slots__ = ("_size", "_rows", "_blocks", "_used")

    def __init__(self, size: int):
        self._size = size
        self._rows = HISTORY_BLOCK
        self._blocks: list = []  # (times (B,), states (B, size)) pairs
        self._used = self._rows  # rows filled in the last block

    def append(self, t: float, x: np.ndarray) -> None:
        if self._used == self._rows:
            self._blocks.append((np.empty(self._rows),
                                 np.empty((self._rows, self._size))))
            self._used = 0
        times, states = self._blocks[-1]
        times[self._used] = t
        states[self._used] = x
        self._used += 1

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows as exact-size ``(times, states)`` arrays; the blocks
        are released, so only one lane ever holds both copies."""
        blocks, self._blocks = self._blocks, []
        times, states = blocks.pop()
        blocks.append((times[:self._used], states[:self._used]))
        return (np.concatenate([t for t, _ in blocks]),
                np.concatenate([x for _, x in blocks]))


@dataclass
class _LaneMarch:
    """Per-lane transient bookkeeping (hot state lives in arrays)."""

    history: _LaneHistory
    report: TransientReport = field(default_factory=TransientReport)
    error: str | None = None
    #: What the serial ConvergenceError for ``error`` carries: the
    #: failed DC ladder's SolveReport, or ``report`` after a stall.
    error_report: SolveReport | TransientReport | None = None


def _integrator(be, dt, k: int) -> Optional[IntegratorState]:
    """Lane position ``k``'s step regime as the serial
    :class:`IntegratorState` (None for DC), for the device methods that
    take one."""
    if be is None:
        return None
    return IntegratorState(BACKWARD_EULER if be[k] else TRAPEZOIDAL,
                           float(dt[k]))


def _solve_stack(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched linear solve; singular blocks yield non-finite rows."""
    if _lapack_solve1 is not None:
        return _lapack_solve1(matrices, rhs)
    try:  # pragma: no cover - fallback without the private gufunc
        return np.linalg.solve(matrices, rhs)
    except np.linalg.LinAlgError:  # pragma: no cover
        out = np.empty_like(rhs)
        for k in range(len(rhs)):
            try:
                out[k] = np.linalg.solve(matrices[k], rhs[k])
            except np.linalg.LinAlgError:
                out[k] = np.nan
        return out


class LaneGroup:
    """N structurally identical circuits stacked into SPMD lanes.

    Raises :class:`BatchUnsupported` unless every lane has a supported
    assembly plan, no opaque devices, and the identical MOSFET stamp
    structure (same flat scatter indices — i.e. the same topology).
    Parameter *values* (W/L/Vt/VDD/temperature) are free to differ.
    """

    def __init__(self, circuits: Sequence):
        if not circuits:
            raise BatchUnsupported("lane group needs at least one circuit")
        self.circuits = list(circuits)
        self.workspaces = [SolverWorkspace(c) for c in self.circuits]
        self.n_lanes = len(self.circuits)
        ref = self.workspaces[0].plan
        for k, ws in enumerate(self.workspaces):
            plan = ws.plan
            if not plan.supported:
                raise BatchUnsupported(
                    f"lane {k} ({self.circuits[k].title!r}) has an "
                    f"unsupported assembly plan; run it serially")
            if plan.opaque:
                raise BatchUnsupported(
                    f"lane {k} ({self.circuits[k].title!r}) contains "
                    f"opaque devices "
                    f"({', '.join(d.name for d in plan.opaque)}); the "
                    f"batched backend stamps only trusted-linear + "
                    f"MOSFET circuits")
            if (plan.size, plan.n_nodes, plan.damped) != (
                    ref.size, ref.n_nodes, ref.damped):
                raise BatchUnsupported(
                    f"lane {k} has MNA shape (size={plan.size}, "
                    f"nodes={plan.n_nodes}) but lane 0 has "
                    f"(size={ref.size}, nodes={ref.n_nodes}); lanes "
                    f"must share one topology")
            if not self._same_mosfet_structure(ref, plan):
                raise BatchUnsupported(
                    f"lane {k} has a different MOSFET stamp layout than "
                    f"lane 0; lanes must share one topology")
        self.size = ref.size
        self.n_nodes = ref.n_nodes
        self.naug = ref.naug
        self.damped = ref.damped
        L, naug = self.n_lanes, self.naug

        mg = ref.mosfet_group
        self.n_mos = mg.n if mg is not None else 0
        # EKV parameters (9, L, n_mos); empty without MOSFETs, so the
        # Newton loop compacts them unconditionally.
        self._mos_params = np.empty((9, L, 0), dtype=float)
        if mg is not None:
            self._dgsb = mg.dgsb  # (4, n_mos), identical across lanes
            # Lane-major flat indices into the stacked matrix/RHS
            # blocks: within a lane the sub-order is exactly the serial
            # device-major order, so np.add.at accumulates bit-equal.
            lanes = np.arange(L, dtype=np.intp)[:, None]
            self._mat_idx = np.ascontiguousarray(
                lanes * (naug * naug) + mg.mat_flat[None, :])
            self._rhs_idx = np.ascontiguousarray(
                lanes * naug + mg.rhs_rows[None, :])
            groups = [ws.plan.mosfet_group for ws in self.workspaces]
            self._mos_params = np.stack(
                [np.stack([getattr(g, name) for g in groups])
                 for name in ("sign", "vto", "n_slope", "ut", "gamma",
                              "phi", "eta_dibl", "lambda_clm", "ispec")])
            self._mv = np.empty((L, self.n_mos, 12), dtype=float)
            self._rv = np.empty((L, self.n_mos, 2), dtype=float)

        # Stacked per-call buffers. The base-matrix stack is indexed by
        # *absolute* lane id and holds each lane's live base; a lane
        # whose regime did not change between solves keeps its block.
        self._base_stack = np.empty((L, naug, naug), dtype=float)
        # Per-lane (method, dt, gmin) memo of the block in the base
        # stack, kept as parallel arrays so staleness checks vectorize
        # over a whole lane set; only stale lanes are rebuilt. method
        # code: -1 invalid, 0 DC, 1 BE, 2 TRAP.
        self._bk_method = np.full(L, -1, dtype=np.int8)
        self._bk_dt = np.zeros(L, dtype=float)
        self._bk_gmin = np.full(L, np.nan, dtype=float)
        self._rhsb_stack = np.empty((L, naug), dtype=float)
        self._A = np.empty((L, naug, naug), dtype=float)
        self._R = np.empty((L, naug), dtype=float)
        self._A_flat = self._A.reshape(-1)
        self._R_flat = self._R.reshape(-1)
        self._Xaug = np.zeros((L, naug), dtype=float)
        # Lazily resolved sparse plan (False = not yet looked up); the
        # symbolic factorization is shared with the serial path through
        # the assembly-plan cache, so selection stays bitwise-coherent.
        self._sparse = False

        # Stacked per-solve setup. Same-topology lanes share one RHS
        # row layout and one capacitor structure (checked, not
        # assumed), which lets the per-solve RHS rebuild and the
        # capacitor companion/state updates run across all lanes at
        # once; a non-uniform group keeps the per-lane workspace path.
        cg = ref.cap_group
        self.n_caps = cg.n if cg is not None else 0
        self._uniform = all(
            self._same_solve_structure(ref, ws.plan)
            for ws in self.workspaces)
        if self._uniform:
            lanes_col = np.arange(L, dtype=np.intp)[:, None]
            rows_tr = ref._rhs_tr[0]
            rows_dc = ref._rhs_dc[0]
            # Lane-major flat RHS scatter indices: within a lane the
            # sub-order is the serial order, so np.add.at accumulates
            # each lane's base bit-equal to begin_solve's.
            self._rhs_tr_idx = np.ascontiguousarray(
                lanes_col * naug + rows_tr[None, :])
            self._rhs_dc_idx = np.ascontiguousarray(
                lanes_col * naug + rows_dc[None, :])
            self._tr_vals_stack = np.empty((L, rows_tr.size), dtype=float)
            self._dc_vals_stack = np.empty((L, rows_dc.size), dtype=float)
            self._rhsb_flat = self._rhsb_stack.reshape(-1)
            # Scalar RHS devices split per lane into static (Dc-shaped
            # sources, whose entries depend only on source_scale) and
            # time-varying waveforms. Static values live in a per-scale
            # template so the per-solve Python loop touches only the
            # waveform devices.
            self._static_scalar: dict = {}
            self._dynamic_scalar: dict = {}
            self._dyn_vec: dict = {}
            self._dyn_scalar_any: dict = {}
            self._static_vals: dict = {}
            self._static_scale: dict = {}
            for regime, rows in (("tr", rows_tr), ("dc", rows_dc)):
                statics: list = []
                dynamics: list = []
                for ws in self.workspaces:
                    scalar = (ws.plan._rhs_tr if regime == "tr"
                              else ws.plan._rhs_dc)[1]
                    statics.append([e for e in scalar
                                    if self._is_static_source(e[0])])
                    dynamics.append([e for e in scalar
                                     if not self._is_static_source(e[0])])
                self._static_scalar[regime] = statics
                self._static_vals[regime] = np.empty((L, rows.size),
                                                     dtype=float)
                self._static_scale[regime] = None
                # Pulse/Pwl voltage sources occupying the same slot in
                # every lane evaluate vectorized across lanes; any
                # other waveform stays on the per-lane Python loop.
                self._dyn_vec[regime] = self._vector_columns(dynamics)
                self._dynamic_scalar[regime] = dynamics
                self._dyn_scalar_any[regime] = any(
                    len(d) for d in dynamics)
            if cg is not None:
                self._cap_a = cg.a
                self._cap_b = cg.b
                self._cap_c = np.stack(
                    [ws.plan.cap_group.c for ws in self.workspaces])
                self._cap_ic = np.stack(
                    [ws.plan.cap_group.ic for ws in self.workspaces])
            # Stacked base-matrix COO templates, one per regime: the
            # shared layout as lane-major flat indices into the base
            # stack, each lane's own template values, and the capacitor
            # geq slots. Rebuilding from them replays
            # AssemblyPlan.base_matrix per lane (same values, same
            # accumulation order), so no plan's base cache is filled.
            self._base_flat = self._base_stack.reshape(L, naug * naug)
            self._diag = ref._diag_flat
            self._mat: dict = {}
            for regime, name in (("tr", "_mat_tr"), ("dc", "_mat_dc")):
                idx, _, cap_pos, cap_neg, _ = getattr(ref, name)
                self._mat[regime] = (
                    np.ascontiguousarray(
                        lanes_col * (naug * naug) + idx[None, :]),
                    np.stack([getattr(ws.plan, name)[1]
                              for ws in self.workspaces]),
                    cap_pos, cap_neg)
        self._stateful = any(ws.plan.stateful_scalar
                             for ws in self.workspaces)
        # Stacked capacitor state (L, n_caps), lazily loaded from the
        # device objects like SolverWorkspace._cap_state.
        self._cap_v: Optional[np.ndarray] = None
        self._cap_i: Optional[np.ndarray] = None
        # Companion terms computed by the last _begin_solve_batch,
        # reusable by the state update of the same super-step (the
        # inputs — dt, method, previous state — are unchanged between
        # the two, so the values are identical by construction).
        self._companion_cache = None

    def _sparse_kernel(self, opts: NewtonOptions):
        """The lane stack's sparse plan when selected, else None."""
        if resolve_solver(opts.solver, self.size) != "sparse":
            return None
        if self._sparse is False:
            self._sparse = sparse_plan_for(self.workspaces[0].plan)
        return self._sparse

    @staticmethod
    def _same_mosfet_structure(ref, plan) -> bool:
        a, b = ref.mosfet_group, plan.mosfet_group
        if (a is None) != (b is None):
            return False
        if a is None:
            return True
        return (a.n == b.n
                and np.array_equal(a.mat_flat, b.mat_flat)
                and np.array_equal(a.rhs_rows, b.rhs_rows)
                and np.array_equal(a.dgsb, b.dgsb))

    @staticmethod
    def _is_static_source(device) -> bool:
        """True when the device's RHS entries ignore time/integrator."""
        return (isinstance(device, (VoltageSource, CurrentSource))
                and type(device.shape) is Dc)

    @staticmethod
    def _vector_columns(dynamics: list) -> list:
        """Extract lane-vectorizable waveform voltage-source slots.

        A slot qualifies when *every* lane's device there is a plain
        :class:`VoltageSource` with one RHS entry and a :class:`Pulse`
        shape (any parameters) or a :class:`Pwl` shape sharing one time
        grid across lanes; qualifying entries are removed from the
        per-lane ``dynamics`` lists (mutated in place) and returned as
        ``(kind, start, payload)`` tuples — ``("pulse", start, params)``
        with ``params`` shaped ``(7, L)`` in (v1, v2, delay, rise,
        fall, width, period) order, or ``("pwl", start, (t_pts,
        v_pts))`` with ``t_pts`` shaped ``(npts,)`` and ``v_pts``
        ``(L, npts)``.
        """
        n = len(dynamics[0])
        if any(len(d) != n for d in dynamics):
            return []
        columns = []
        for j in range(n):
            col = [d[j] for d in dynamics]
            start = col[0][1]
            if not all(e[1] == start and e[2] == 1
                       and type(e[0]) is VoltageSource for e in col):
                continue
            shapes = [e[0].shape for e in col]
            if all(type(s) is Pulse for s in shapes):
                params = np.array(
                    [[s.v1, s.v2, s.delay, s.rise, s.fall, s.width,
                      s.period] for s in shapes], dtype=float).T
                columns.append(("pulse", start,
                                np.ascontiguousarray(params)))
            elif all(type(s) is Pwl for s in shapes):
                t_pts = np.asarray(shapes[0].times, dtype=float)
                if any(s.times != shapes[0].times for s in shapes[1:]):
                    continue
                v_pts = np.array([s.values for s in shapes], dtype=float)
                columns.append(("pwl", start, (t_pts, v_pts)))
        taken = {start for _, start, _ in columns}
        for d in dynamics:
            d[:] = [e for e in d if e[1] not in taken]
        return columns

    @staticmethod
    def _pulse_value_lanes(t: np.ndarray, params: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`Pulse.value` — identical float ops per lane.

        Every branch is evaluated elementwise with the exact serial
        expressions and np.where selects per lane; ``%`` on nonnegative
        operands is ``np.mod``, and rise/fall/period are validated > 0,
        so no branch traps.
        """
        v1, v2, delay, rise, fall, width, period = params
        tau = np.mod(t - delay, period)
        tau2 = tau - rise
        tau3 = tau2 - width
        return np.where(
            t < delay, v1,
            np.where(tau < rise, v1 + (v2 - v1) * tau / rise,
                     np.where(tau2 < width, v2,
                              np.where(tau3 < fall,
                                       v2 + (v1 - v2) * tau3 / fall,
                                       v1))))

    @staticmethod
    def _pwl_value_lanes(t: np.ndarray, t_pts: np.ndarray,
                         v_rows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`Pwl.value` — identical float ops per lane.

        ``np.searchsorted(side="right")`` is exactly ``bisect_right``;
        the interpolation expression is the serial one elementwise, and
        out-of-range lanes (selected out by np.where) read a clamped
        segment whose finite division cannot trap. A one-point
        waveform has no segment: it is its constant, as serially.
        """
        if t_pts.size == 1:
            return v_rows[:, 0].copy()
        idx = np.searchsorted(t_pts, t, side="right") - 1
        idx = np.clip(idx, 0, t_pts.size - 2)
        rows = np.arange(len(t))
        t0 = t_pts[idx]
        t1 = t_pts[idx + 1]
        v0 = v_rows[rows, idx]
        v1 = v_rows[rows, idx + 1]
        interp = v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return np.where(t <= t_pts[0], v_rows[:, 0],
                        np.where(t >= t_pts[-1], v_rows[:, -1], interp))

    @staticmethod
    def _same_solve_structure(ref, plan) -> bool:
        """Identical RHS row layout, base-matrix layout and capacitor
        structure vs lane 0, with no scalar reactive device (inductor)
        in either: those keep the per-workspace base path."""
        if ref._mat_tr[4] or plan._mat_tr[4]:
            return False
        for a, b in ((ref._rhs_tr, plan._rhs_tr),
                     (ref._rhs_dc, plan._rhs_dc)):
            if not (np.array_equal(a[0], b[0])
                    and np.array_equal(a[2], b[2])
                    and np.array_equal(a[3], b[3])
                    and [(s, c) for _, s, c in a[1]]
                    == [(s, c) for _, s, c in b[1]]):
                return False
        for a, b in ((ref._mat_tr, plan._mat_tr),
                     (ref._mat_dc, plan._mat_dc)):
            if not (np.array_equal(a[0], b[0])
                    and np.array_equal(a[2], b[2])
                    and np.array_equal(a[3], b[3])):
                return False
        a, b = ref.cap_group, plan.cap_group
        if (a is None) != (b is None):
            return False
        if a is not None and not (
                a.n == b.n and np.array_equal(a.a, b.a)
                and np.array_equal(a.b, b.b)):
            return False
        return True

    # -- lane-masked batched Newton --------------------------------------

    def newton(self, lane_ids: np.ndarray, x0: np.ndarray, *,
               times: Optional[np.ndarray] = None,
               be: Optional[np.ndarray] = None,
               dt: Optional[np.ndarray] = None,
               options: Optional[NewtonOptions] = None,
               gmin: Optional[float] = None,
               source_scale: float = 1.0) -> BatchNewtonResult:
        """Damped Newton over ``lane_ids``, one batched solve per pass.

        Args:
            lane_ids: absolute lane indices participating in this call.
            x0: initial iterates, shape ``(len(lane_ids), size)``.
            times: per-lane source time (``None``: 0.0 for every lane).
            be / dt: per-lane transient step regime — a backward-Euler
                mask (trapezoidal where False) and the step sizes. Both
                ``None`` is a DC solve.

        Each lane replays exactly the serial loop's float operations —
        per-lane damping decisions, per-lane convergence tests — so a
        converged lane's solution is bitwise what :func:`newton_solve`
        would return. Converged/failed lanes leave the active set at
        the end of the iteration that settles them; the iterates, base
        blocks, RHS bases and EKV parameters of the lanes still alive
        stay in compact arrays, re-gathered only when a lane leaves.
        """
        opts = options or NewtonOptions()
        effective_gmin = opts.gmin if gmin is None else gmin
        lane_ids = np.asarray(lane_ids, dtype=np.intp)
        nc = len(lane_ids)
        if (be is None) != (dt is None):
            raise ValueError("newton takes be and dt together (a "
                             "transient step) or neither (DC)")
        times = (np.zeros(nc) if times is None
                 else np.asarray(times, dtype=float))
        if be is not None:
            be = np.asarray(be, dtype=bool)
            dt = np.asarray(dt, dtype=float)
        size, n_nodes, naug = self.size, self.n_nodes, self.naug
        n_branch = size - n_nodes
        tracer = telemetry.active_tracer()
        if tracer is not None:
            tracer.count("batch.newton.solves", nc)

        # Per-solve setup: base matrices and RHS bases, bitwise the
        # serial begin_solve's (stacked across lanes where structure
        # allows, per-lane workspace code otherwise).
        self._begin_solve_batch(lane_ids, times, be, dt, effective_gmin,
                                source_scale)
        add_solve_stats(solves=nc)

        # X receives each lane's final iterate when it leaves; the
        # compact arrays hold the alive lanes in position order.
        X = np.array(x0, dtype=float, copy=True)
        converged = np.zeros(nc, dtype=bool)
        iterations = np.zeros(nc, dtype=np.intp)
        errors: list = [None] * nc
        last_dv = np.zeros(nc, dtype=float)
        alive = np.arange(nc, dtype=np.intp)
        Xc = X.copy()
        base = self._base_stack[lane_ids]
        rhs = self._rhsb_stack[:nc]
        params = self._mos_params[:, lane_ids]
        damped = self.damped
        sparse = self._sparse_kernel(opts)

        saved_err = np.seterr(invalid="ignore", over="ignore",
                              divide="ignore")
        try:
            for iteration in range(opts.max_iterations):
                na = alive.size
                if na == 0:
                    break
                add_solve_stats(iterations=na)
                if tracer is not None:
                    tracer.count("batch.newton.iterations")
                    tracer.count("batch.newton.lane_iterations", na)
                A = self._A[:na]
                R = self._R[:na]
                np.copyto(A, base)
                np.copyto(R, rhs)
                Xa = self._Xaug[:na]
                Xa[:, :size] = Xc
                Xa[:, size:] = 0.0
                if self.n_mos:
                    self._stamp_mosfets(params, Xa, A, R, effective_gmin,
                                        na, naug)

                if sparse is not None:
                    x_new = sparse.solve(A[:, :size, :size], R[:, :size])
                else:
                    x_new = _solve_stack(A[:, :size, :size], R[:, :size])
                finite = np.isfinite(x_new).all(axis=1)
                if not finite.all():
                    for pos in np.nonzero(~finite)[0]:
                        k = alive[pos]
                        if (np.isfinite(A[pos, :size, :size]).all()
                                and np.isfinite(R[pos, :size]).all()):
                            errors[k] = ("singular MNA matrix at "
                                         f"iteration {iteration}")
                        else:
                            errors[k] = ("non-finite solution at "
                                         f"iteration {iteration}")
                        iterations[k] = iteration
                    # A failed lane keeps the iterate it entered with.
                    X[alive[~finite]] = Xc[~finite]
                    alive, Xc, base, rhs, params = (
                        alive[finite], Xc[finite], base[finite],
                        rhs[finite], params[:, finite])
                    x_new = x_new[finite]
                    if alive.size == 0:
                        continue

                delta = x_new - Xc
                absd = np.abs(delta)
                max_dv = (absd[:, :n_nodes].max(axis=1) if n_nodes
                          else np.zeros(alive.size))
                max_di = (absd[:, n_nodes:].max(axis=1) if n_branch
                          else np.zeros(alive.size))
                last_dv[alive] = max_dv

                if damped:
                    clamp = max_dv > opts.max_step_v
                    # Clamped lanes scale by max_step_v/max_dv exactly
                    # like the serial loop; unclamped lanes multiply by
                    # 1.0, which is exact, so one fused update serves
                    # both without perturbing either.
                    scale = np.where(clamp,
                                     opts.max_step_v
                                     / np.where(clamp, max_dv, 1.0),
                                     1.0)
                    Xc += delta * scale[:, None]
                else:
                    clamp = np.zeros(alive.size, dtype=bool)
                    Xc += delta

                absx = np.abs(Xc)
                v_tol = opts.abstol_v + opts.reltol * (
                    absx[:, :n_nodes].max(axis=1) if n_nodes
                    else np.zeros(alive.size))
                i_tol = opts.abstol_i + opts.reltol * (
                    absx[:, n_nodes:].max(axis=1) if n_branch
                    else np.zeros(alive.size))
                conv = (~clamp) & (max_dv <= v_tol) & (max_di <= i_tol)
                if conv.any():
                    newly = alive[conv]
                    converged[newly] = True
                    iterations[newly] = iteration + 1
                    X[newly] = Xc[conv]
                    keep = ~conv
                    alive, Xc, base, rhs, params = (
                        alive[keep], Xc[keep], base[keep], rhs[keep],
                        params[:, keep])
        finally:
            np.seterr(**saved_err)

        X[alive] = Xc
        for k in alive:
            errors[k] = (f"Newton failed to converge in "
                         f"{opts.max_iterations} iterations "
                         f"(last max dV = {last_dv[k]:.3e} V)")
            iterations[k] = opts.max_iterations
        if tracer is not None:
            n_failed = sum(1 for e in errors if e is not None)
            if n_failed:
                tracer.count("batch.newton.lane_failures", n_failed)
        return BatchNewtonResult(x=X, converged=converged,
                                 iterations=iterations, errors=errors,
                                 last_dv=last_dv)

    def _stamp_mosfets(self, params, Xa, A, R, gmin, na, naug) -> None:
        """Vectorized EKV + scatter over all active lanes at once."""
        from repro.spice.devices.mosfet import ekv_evaluate
        V = Xa[:, self._dgsb]  # (na, 4, n_mos)
        vd, vg, vs, vb = V[:, 0], V[:, 1], V[:, 2], V[:, 3]
        (sign, vto, n_slope, ut, gamma, phi, eta_dibl, lambda_clm,
         ispec) = params
        id_real, gdd, gdg, gds_, gdb = ekv_evaluate(
            sign, vto, n_slope, ut, gamma, phi, eta_dibl, lambda_clm,
            ispec, vd, vg, vs, vb)
        mv = self._mv[:na]
        mv[..., 0] = gdd
        mv[..., 2] = gdg
        mv[..., 4] = gds_
        mv[..., 6] = gdb
        np.negative(mv[..., 0:8:2], out=mv[..., 1:8:2])
        mv[..., 8] = gmin
        mv[..., 9] = gmin
        mv[..., 10] = -gmin
        mv[..., 11] = -gmin
        np.add.at(self._A_flat[:na * naug * naug],
                  self._mat_idx[:na].ravel(), mv.reshape(-1))
        linear_sum = gdd * vd + gdg * vg + gds_ * vs + gdb * vb
        r = linear_sum - id_real
        rv = self._rv[:na]
        rv[..., 0] = r
        rv[..., 1] = -r
        np.add.at(self._R_flat[:na * naug],
                  self._rhs_idx[:na].ravel(), rv.reshape(-1))

    # -- stacked per-solve setup and capacitor state ---------------------

    def _begin_solve_batch(self, lane_ids, times, be, dt, gmin,
                           source_scale) -> None:
        """Rebuild every lane's base matrix and RHS base for one solve.

        Stale base blocks are rebuilt in one stacked pass
        (:meth:`_rebuild_bases`). The scalar source values still come
        from each lane's own device objects (waveform evaluation is
        data-dependent Python), but the capacitor companion and the RHS
        scatter run stacked across lanes. Per lane the value order and
        the float expressions are exactly
        :meth:`SolverWorkspace.begin_solve`'s, so the bases are bitwise
        the serial ones.
        """
        nc = len(lane_ids)
        self._companion_cache = None
        transient = be is not None
        if not self._uniform:
            for k, (lane, t) in enumerate(zip(lane_ids, times.tolist())):
                ws = self.workspaces[lane]
                ws.begin_solve(t, _integrator(be, dt, k), gmin,
                               source_scale)
                self._base_stack[lane] = ws._base
                self._bk_method[lane] = -1
                self._rhsb_stack[k] = ws._rhs_base
            return
        regime = "tr" if transient else "dc"
        vals = (self._tr_vals_stack if transient
                else self._dc_vals_stack)[:nc]
        idx = (self._rhs_tr_idx if transient else self._rhs_dc_idx)[:nc]
        template = self._static_vals[regime]
        if self._static_scale[regime] != source_scale:
            for lane, entries_list in enumerate(
                    self._static_scalar[regime]):
                row = template[lane]
                for device, start, count in entries_list:
                    entries = device.dynamic_rhs_entries(
                        0.0, source_scale, None)
                    for j in range(count):
                        row[start + j] = entries[j][1]
            self._static_scale[regime] = source_scale
        np.take(template, lane_ids, axis=0, out=vals)
        for shape, start, payload in self._dyn_vec[regime]:
            if shape == "pulse":
                vals[:, start] = self._pulse_value_lanes(
                    times, payload[:, lane_ids]) * source_scale
            else:
                t_pts, v_pts = payload
                vals[:, start] = self._pwl_value_lanes(
                    times, t_pts, v_pts[lane_ids]) * source_scale
        geq = None
        if transient and self.n_caps:
            ref = self.workspaces[0].plan
            geq, ieq = self._companion_lanes(lane_ids, be, dt)
            self._companion_cache = (lane_ids, geq, ieq)
            vals[:, ref._rhs_tr[2]] = -ieq
            vals[:, ref._rhs_tr[3]] = ieq
        if transient:
            m_codes = np.where(be, np.int8(1), np.int8(2))
            dts = dt
        else:
            m_codes = np.zeros(nc, dtype=np.int8)
            dts = np.zeros(nc, dtype=float)
        stale = ((self._bk_method[lane_ids] != m_codes)
                 | (self._bk_dt[lane_ids] != dts)
                 | (self._bk_gmin[lane_ids] != gmin))
        if stale.any():
            self._rebuild_bases(lane_ids[stale], regime, gmin,
                                None if geq is None else geq[stale])
            self._bk_method[lane_ids] = m_codes
            self._bk_dt[lane_ids] = dts
            self._bk_gmin[lane_ids] = gmin
        if self._dyn_scalar_any[regime]:
            dynamic = self._dynamic_scalar[regime]
            for k, (lane, t) in enumerate(zip(lane_ids, times.tolist())):
                if not dynamic[lane]:
                    continue
                vk = vals[k]
                integ = _integrator(be, dt, k)
                for device, start, count in dynamic[lane]:
                    entries = device.dynamic_rhs_entries(t, source_scale,
                                                         integ)
                    for j in range(count):
                        vk[start + j] = entries[j][1]
        R = self._rhsb_stack[:nc]
        R[...] = 0.0
        np.add.at(self._rhsb_flat[:nc * self.naug], idx.ravel(),
                  vals.ravel())

    def _rebuild_bases(self, lanes, regime, gmin, geq) -> None:
        """Stacked :meth:`AssemblyPlan.base_matrix` for ``lanes``.

        Each lane's template values (capacitor ``geq`` slots filled from
        ``geq``, the companion conductances of this step) go through one
        lane-major ``np.add.at`` onto zeroed blocks, then ``+= gmin`` on
        the node diagonal: per lane the serial rebuild's values in its
        accumulation order, so every block is bitwise the plan's base.
        """
        idx, template, cap_pos, cap_neg = self._mat[regime]
        vals = template[lanes]
        if geq is not None:
            pairs = np.repeat(geq, 2, axis=1)
            vals[:, cap_pos] = pairs
            vals[:, cap_neg] = -pairs
        flat = self._base_flat
        flat[lanes] = 0.0
        np.add.at(flat.reshape(-1), idx[lanes].ravel(), vals.ravel())
        flat[lanes[:, None], self._diag] += gmin

    def _cap_state_stack(self) -> None:
        """Lazy-load stacked capacitor state from the device objects."""
        if self._cap_v is None:
            self._cap_v = np.array(
                [[c._v_prev for c in ws.plan.cap_group.caps]
                 for ws in self.workspaces], dtype=float)
            self._cap_i = np.array(
                [[c._i_prev for c in ws.plan.cap_group.caps]
                 for ws in self.workspaces], dtype=float)

    def _companion_lanes(self, lane_ids, be, dt):
        """Stacked :meth:`_CapacitorGroup.companion` (same float ops)."""
        self._cap_state_stack()
        v_prev = self._cap_v[lane_ids]
        i_prev = self._cap_i[lane_ids]
        c = self._cap_c[lane_ids]
        dt = dt[:, None]
        be = be[:, None]
        # Both branches are evaluated elementwise with the exact serial
        # expressions; np.where selects per lane, so a BE lane's values
        # are bitwise the BE companion's and likewise for TRAP.
        geq_be = c / dt
        geq_tr = 2.0 * c / dt
        geq = np.where(be, geq_be, geq_tr)
        ieq = np.where(be, -geq_be * v_prev,
                       -(geq_tr * v_prev + i_prev))
        return geq, ieq

    def _cap_terminal_v(self, lane_ids, X) -> np.ndarray:
        """Per-lane capacitor terminal voltages (serial x_aug gather)."""
        Xa = self._Xaug[:len(lane_ids)]
        Xa[:, :self.size] = X
        Xa[:, self.size:] = 0.0
        return Xa[:, self._cap_a] - Xa[:, self._cap_b]

    def init_state_lanes(self, lane_ids: np.ndarray,
                         X: np.ndarray) -> None:
        """Stacked :meth:`SolverWorkspace.init_state` over lanes."""
        if not self._uniform:
            for k, lane in enumerate(lane_ids):
                self.workspaces[lane].init_state(X[k])
            return
        if self.n_caps:
            self._cap_state_stack()
            v = self._cap_terminal_v(lane_ids, X)
            ic = self._cap_ic[lane_ids]
            self._cap_v[lane_ids] = np.where(np.isnan(ic), v, ic)
            self._cap_i[lane_ids] = 0.0
        if self._stateful:
            for k, lane in enumerate(lane_ids):
                for device in self.workspaces[lane].plan.stateful_scalar:
                    device.init_state(X[k])

    def update_state_lanes(self, lane_ids: np.ndarray, X_new: np.ndarray,
                           be: np.ndarray, dt: np.ndarray) -> None:
        """Stacked :meth:`SolverWorkspace.update_state` over lanes, for
        the accepted step regime ``(be, dt)`` of each."""
        if not self._uniform:
            for k, lane in enumerate(lane_ids):
                self.workspaces[lane].update_state(
                    X_new[k], _integrator(be, dt, k))
            return
        if self.n_caps:
            v_new = self._cap_terminal_v(lane_ids, X_new)
            cache = self._companion_cache
            if cache is not None:
                cached_ids, geq_all, ieq_all = cache
                pos = np.searchsorted(cached_ids, lane_ids)
                pos = np.minimum(pos, cached_ids.size - 1)
                if np.array_equal(cached_ids[pos], lane_ids):
                    geq, ieq = geq_all[pos], ieq_all[pos]
                else:
                    geq, ieq = self._companion_lanes(lane_ids, be, dt)
            else:
                geq, ieq = self._companion_lanes(lane_ids, be, dt)
            self._cap_i[lane_ids] = geq * v_new + ieq
            self._cap_v[lane_ids] = v_new
            # The previous state just changed; the cached companion no
            # longer reflects it.
            self._companion_cache = None
        if self._stateful:
            for k, lane in enumerate(lane_ids):
                for device in self.workspaces[lane].plan.stateful_scalar:
                    device.update_state(X_new[k], _integrator(be, dt, k))

    def sync_state_lane(self, lane: int) -> None:
        """Write one lane's stacked capacitor state back to devices."""
        if not self._uniform or not self.n_caps or self._cap_v is None:
            self.workspaces[lane].sync_state()
            return
        caps = self.workspaces[lane].plan.cap_group.caps
        for cap, v, i in zip(caps, self._cap_v[lane], self._cap_i[lane]):
            cap._v_prev = float(v)
            cap._i_prev = float(i)

    # -- batched DC with serial-ladder eviction --------------------------

    def solve_dc(self, options: Optional[NewtonOptions] = None,
                 policy: Optional[RetryPolicy] = None,
                 x0: Optional[np.ndarray] = None,
                 ) -> tuple[np.ndarray, list, list]:
        """DC operating points for all lanes.

        Runs the plain-Newton rung batched (bitwise what the serial
        ladder's first attempt computes); lanes it cannot crack fall to
        the retry ladder. On the common path — no tracer, no fault
        plan, no wall-clock/iteration budgets — the whole ladder runs
        *batched* too: every gmin rung and source-ramp rung is one
        lane-masked Newton call over the still-failing lanes, replaying
        the serial ladder's per-lane control flow (a lane failing any
        gmin rung falls through to source stepping from zeros), so each
        lane lands bitwise where :func:`solve_dc_report` would put it.
        Otherwise lanes are evicted one at a time to the serial ladder
        with the lane's own workspace, exactly as before. Returns
        ``(X, reports, errors)`` where ``reports[k]`` is the ladder's
        :class:`SolveReport` (None for lanes the batched rung solved)
        and ``errors[k]`` carries the final ConvergenceError text for
        lanes the ladder lost too; a lost lane's report is the one that
        error carries.
        """
        opts = options or NewtonOptions()
        nc = self.n_lanes
        lane_ids = np.arange(nc, dtype=np.intp)
        x0s = (np.zeros((nc, self.size))
               if x0 is None else np.asarray(x0, dtype=float))
        res = self.newton(lane_ids, x0s, options=opts)
        X = res.x
        reports: list = [None] * nc
        errors: list = [None] * nc
        for k in range(nc):
            if not res.converged[k]:
                errors[k] = res.errors[k]
        evicted = np.nonzero(~res.converged)[0]
        if not evicted.size:
            return X, reports, errors
        tracer = telemetry.active_tracer()
        if tracer is not None:
            tracer.count("batch.dc.evicted", int(evicted.size))
        pol = policy or RetryPolicy()
        pol.validate()
        if (tracer is None and active_plan() is None
                and pol.max_wall_clock_s is None
                and pol.max_total_iterations is None):
            self._ladder_batched(evicted, x0s, opts, pol, res, X,
                                 reports, errors)
            return X, reports, errors
        for k in evicted:
            try:
                x, report = solve_dc_report(
                    self.circuits[k], x0=x0s[k] if x0 is not None
                    else None, options=opts, policy=policy,
                    workspace=self.workspaces[k])
            except ConvergenceError as exc:
                errors[k] = str(exc)
                reports[k] = exc.report
                continue
            X[k] = x
            reports[k] = report
            errors[k] = None
        return X, reports, errors

    def _ladder_batched(self, evicted, x0s, opts, pol, first, X,
                        reports, errors) -> None:
        """Replay the serial DC retry ladder across lanes at once.

        Per lane the control flow is exactly the serial
        ``_solve_dc_report_impl``'s: the recorded plain attempt
        (synthesized from the already-failed batched rung rather than
        re-run — same deterministic failure, same record fields), then
        the gmin ladder carried rung to rung, with any rung failure
        dropping the lane through to source stepping from zeros. Each
        rung is one lane-masked batched Newton call, bitwise the serial
        attempt per lane.
        """
        started = _time.monotonic()

        def _record(strategy: str, detail: str, res, pos) -> AttemptRecord:
            rec = AttemptRecord(strategy=strategy, detail=detail)
            rec.iterations = int(res.iterations[pos])
            if res.converged[pos]:
                rec.converged = True
                rec.residual = float(res.last_dv[pos])
            else:
                rec.residual = (float(res.last_dv[pos])
                                if res.iterations[pos] > 0 else None)
                rec.error = res.errors[pos]
            return rec

        ladder_reports: dict = {}
        for k in evicted:
            rep = SolveReport()
            rep.attempts.append(_record("newton", "plain", first, int(k)))
            ladder_reports[int(k)] = rep

        def _finish(k: int, strategy: str, x) -> None:
            rep = ladder_reports[k]
            rep.converged = True
            rep.winning_strategy = strategy
            rep.wall_time_s = _time.monotonic() - started
            X[k] = x
            reports[k] = rep
            errors[k] = None

        ids = np.asarray(evicted, dtype=np.intp)
        to_source: list = []
        if pol.enable_gmin_stepping:
            Xg = np.array(x0s[ids], copy=True)
            for g in tuple(pol.gmin_ladder) + (opts.gmin,):
                if ids.size == 0:
                    break
                res = self.newton(ids, Xg, options=opts, gmin=g)
                for pos, k in enumerate(ids):
                    ladder_reports[int(k)].attempts.append(
                        _record("gmin", f"gmin={g:g}", res, pos))
                ok = res.converged
                to_source.extend(int(k) for k in ids[~ok])
                ids = ids[ok]
                Xg = res.x[ok]
            for pos, k in enumerate(ids):
                _finish(int(k), "gmin", Xg[pos])
        else:
            to_source = [int(k) for k in ids]

        failed: list = []
        src = np.asarray(sorted(to_source), dtype=np.intp)
        if pol.enable_source_stepping and src.size:
            ramp = tuple(pol.source_ramp)
            Xs = np.zeros((src.size, self.size))
            for scale in ramp:
                if src.size == 0:
                    break
                res = self.newton(src, Xs, options=opts,
                                  source_scale=scale)
                for pos, k in enumerate(src):
                    ladder_reports[int(k)].attempts.append(
                        _record("source", f"scale={scale:g}", res, pos))
                ok = res.converged
                failed.extend(int(k) for k in src[~ok])
                src = src[ok]
                Xs = res.x[ok]
            if ramp:
                for pos, k in enumerate(src):
                    _finish(int(k), "source", Xs[pos])
            else:
                failed.extend(int(k) for k in src)
        else:
            failed.extend(int(k) for k in src)

        for k in sorted(failed):
            rep = ladder_reports[k]
            rep.converged = False
            rep.wall_time_s = _time.monotonic() - started
            reports[k] = rep
            errors[k] = (
                f"DC solution not found for circuit "
                f"{self.circuits[k].title!r} after "
                f"{len(rep.attempts)} attempts "
                f"({rep.strategy_summary()})")


class BatchTransientResult:
    """Per-lane transient results plus a shared interpolation grid."""

    def __init__(self, lanes: list, errors: list, reports: list):
        #: Per-lane :class:`TransientResult` (None where the lane died).
        self.lanes = lanes
        #: Per-lane failure text (None where the lane completed) —
        #: the message the serial engine's ConvergenceError would carry.
        self.errors = errors
        #: Per-lane report that ConvergenceError would carry (None
        #: where the lane completed).
        self.reports = reports

    @property
    def n_lanes(self) -> int:
        return len(self.lanes)

    def lane(self, k: int) -> TransientResult:
        """The lane's result; raises the deferred stall if it died."""
        if self.lanes[k] is None:
            raise ConvergenceError(self.errors[k], report=self.reports[k])
        return self.lanes[k]

    def ok(self, k: int) -> bool:
        return self.lanes[k] is not None

    def shared_grid(self, samples: int = 512
                    ) -> tuple[np.ndarray, np.ndarray]:
        """All lanes interpolated onto one uniform time grid.

        Returns ``(grid, states)`` with ``states`` shaped
        ``(lanes, samples, size)``; dead lanes are NaN rows. Each
        lane's native adaptive time points remain available through
        :meth:`lane` — the grid is for cross-lane ndarray consumers
        (surface plots, vectorized metric sweeps).
        """
        t_end = max((r.times[-1] for r in self.lanes if r is not None),
                    default=0.0)
        grid = np.linspace(0.0, float(t_end), int(samples))
        size = next((r._states.shape[1] for r in self.lanes
                     if r is not None), 0)
        states = np.full((len(self.lanes), int(samples), size), np.nan)
        for k, result in enumerate(self.lanes):
            if result is None:
                continue
            for col in range(size):
                states[k, :, col] = np.interp(
                    grid, result.times, result._states[:, col])
        return grid, states


class BatchTransient:
    """Batched transient runner with per-lane adaptive timestep.

    The step-control state machine is replicated *per lane* from
    :class:`~repro.spice.transient.Transient` — breakpoint snapping,
    BE-after-breakpoint restarts, dv_max rejection, halving budgets,
    1.5x growth — so each lane visits exactly the time points and
    integrator choices it would visit alone, and its accepted states
    are bitwise the serial ones. Only the Newton solves are pooled:
    each super-step solves every active lane's next attempted step in
    one batched call.

    Ambient fault plans are not consumed on this path (the experiment
    engine keeps fault campaigns serial); construction refuses to race
    one silently.
    """

    def __init__(self, circuits: Sequence, t_stop,
                 options: Optional[TransientOptions] = None):
        self.group = LaneGroup(circuits)
        self.options = options or TransientOptions()
        if np.isscalar(t_stop):
            t_stops = [float(t_stop)] * self.group.n_lanes
        else:
            t_stops = [float(t) for t in t_stop]
            if len(t_stops) != self.group.n_lanes:
                raise AnalysisError(
                    f"got {len(t_stops)} t_stop values for "
                    f"{self.group.n_lanes} lanes")
        if any(t <= 0 for t in t_stops):
            raise AnalysisError("t_stop must be > 0 for every lane")
        self.t_stops = t_stops
        if active_plan() is not None:
            raise BatchUnsupported(
                "an ambient FaultPlan is active; fault injection "
                "requires the serial transient path")

    def run(self, x0: Optional[np.ndarray] = None) -> BatchTransientResult:
        group = self.group
        opts = self.options
        if opts.method not in (None, BACKWARD_EULER, TRAPEZOIDAL):
            raise AnalysisError(
                f"TransientOptions.method must be None, "
                f"{BACKWARD_EULER!r} or {TRAPEZOIDAL!r}, "
                f"got {opts.method!r}")
        forced_method = opts.method
        policy = opts.policy or RetryPolicy()
        policy.validate()
        tracer = telemetry.active_tracer()
        n_nodes = group.n_nodes
        nc = group.n_lanes
        if tracer is not None:
            tracer.count("batch.tran.lanes", nc)

        # Per-lane step-control state lives in flat arrays so the loop
        # head and accept/reject bookkeeping run vectorized over the
        # active set; per lane the arithmetic (and hence every float
        # decision) is exactly the serial engine's.
        marches: list = [_LaneMarch(_LaneHistory(group.size))
                         for _ in range(nc)]
        t_stop_a = np.asarray(self.t_stops, dtype=float)
        h_max_a = np.empty(nc, dtype=float)
        h_min_a = np.empty(nc, dtype=float)
        restart_a = np.empty(nc, dtype=float)
        bp_rows = []
        for k in range(nc):
            t_stop = self.t_stops[k]
            h_max = opts.h_max if opts.h_max is not None else t_stop / 100.0
            h_min = opts.h_min if opts.h_min is not None else t_stop * 1e-9
            if h_min >= h_max:
                raise AnalysisError(
                    f"h_min {h_min} must be < h_max {h_max}")
            h_max_a[k] = h_max
            h_min_a[k] = h_min
            restart_a[k] = max(h_min, h_max * opts.restart_fraction)
            bp_rows.append(group.circuits[k].breakpoints(t_stop))
        # Breakpoint lookup table, padded per lane with its own t_stop —
        # exactly the serial "past the last breakpoint -> t_stop" rule.
        bp_width = max((len(r) for r in bp_rows), default=0) + 2
        bp_mat = np.empty((nc, bp_width), dtype=float)
        for k, row in enumerate(bp_rows):
            bp_mat[k, :len(row)] = row
            bp_mat[k, len(row):] = t_stop_a[k]

        # DC seed: batched plain Newton, serial-ladder eviction.
        X = np.zeros((nc, group.size), dtype=float)
        if x0 is None:
            x_dc, dc_reports, dc_errors = group.solve_dc(
                options=opts.newton, policy=policy)
            for k, march in enumerate(marches):
                if dc_errors[k] is not None:
                    march.error = dc_errors[k]
                    march.error_report = dc_reports[k]
                    march.report.stalled = True
                    continue
                X[k] = x_dc[k]
                march.report.dc_report = dc_reports[k]
        else:
            X[:] = np.asarray(x0, dtype=float)
        live = np.asarray([k for k, m in enumerate(marches)
                           if m.error is None], dtype=np.intp)
        if live.size:
            group.init_state_lanes(live, X[live])
        for k in live:
            marches[k].history.append(0.0, X[k])

        # Hot per-lane step-control state, and the step counters that
        # are folded into each lane's report when the run ends.
        dead = np.asarray([m.error is not None for m in marches])
        t = np.zeros(nc, dtype=float)
        h = restart_a.copy()
        bp_idx = np.ones(nc, dtype=np.intp)  # breakpoints[0] == 0.0
        use_be = np.ones(nc, dtype=bool)  # first step from DC uses BE
        halvings = np.zeros(nc, dtype=np.intp)
        max_halv = policy.max_step_halvings
        n_accepted = np.zeros(nc, dtype=np.intp)
        n_rejected = np.zeros(nc, dtype=np.intp)
        n_halved = np.zeros(nc, dtype=np.intp)

        def _stall(k: int, reason: str) -> None:
            group.sync_state_lane(k)
            marches[k].report.stalled = True
            marches[k].error_report = marches[k].report
            marches[k].error = (
                f"transient stalled at t={t[k]:.6e}s with "
                f"h={h[k]:.3e}s in circuit "
                f"{group.circuits[k].title!r} ({reason})")
            dead[k] = True
            if tracer is not None:
                tracer.count("batch.tran.stalled")

        while True:
            act = np.nonzero(~dead & (t < t_stop_a - 1e-21))[0]
            if act.size == 0:
                break
            # Vectorized loop head: same arithmetic and decisions as
            # the serial engine's, elementwise per lane (min/max and
            # np.minimum/np.maximum select the same values; comparisons
            # and the float expressions are the serial ones verbatim).
            ta = t[act]
            next_bp = bp_mat[act, np.minimum(bp_idx[act], bp_width - 1)]
            ha = np.minimum(np.minimum(h[act], h_max_a[act]),
                            t_stop_a[act] - ta)
            hit = ta + ha >= next_bp - 1e-21
            ha = np.where(hit, next_bp - ta, ha)
            ha = np.where(ha < h_min_a[act] * 0.5,
                          np.maximum(ha, 1e-21), ha)
            h[act] = ha
            if forced_method is None:
                be = use_be[act]
            else:
                be = np.full(act.size, forced_method == BACKWARD_EULER)

            res = group.newton(act, X[act], times=ta + ha, be=be, dt=ha,
                               options=opts.newton)
            if tracer is not None:
                tracer.count("batch.tran.super_steps")
            # Per-lane accepted-step dv, one vectorized pass: rowwise
            # max over the same elements the serial engine reduces, and
            # max is order-exact, so each lane's value is bitwise the
            # serial scalar.
            dv_rows = (np.abs(res.x[:, :n_nodes]
                              - X[act, :n_nodes]).max(axis=1)
                       if n_nodes else np.zeros(act.size))
            conv = res.converged

            # Newton failures (rare): serial halve-or-stall, per lane.
            if not conv.all():
                for pos in np.nonzero(~conv)[0]:
                    k = act[pos]
                    m = marches[k]
                    m.report.newton_failures += 1
                    if h[k] <= h_min_a[k] * 1.0000001:
                        _stall(k, "step at h_min")
                        continue
                    if halvings[k] >= max_halv:
                        _stall(k, f"halving budget {max_halv} exhausted")
                        continue
                    h[k] = max(h[k] / 2.0, h_min_a[k])
                    halvings[k] += 1
                    n_halved[k] += 1
                    if policy.be_on_retry:
                        use_be[k] = True

            # Accuracy rejections, vectorized (counters per lane).
            rej = (conv & (dv_rows > opts.dv_max)
                   & (h[act] > h_min_a[act] * 1.0000001)
                   & (halvings[act] < max_halv))
            if rej.any():
                ids = act[rej]
                h[ids] = np.maximum(h[ids] / 2.0, h_min_a[ids])
                halvings[ids] += 1
                n_rejected[ids] += 1
                n_halved[ids] += 1

            # Accepted steps: state arrays update vectorized, the
            # capacitor-state update runs stacked, and only the result
            # recording (times/states/report) stays per lane.
            acc = np.nonzero(conv & ~rej)[0]
            if acc.size:
                ids = act[acc]
                hit_acc = hit[acc]
                t[ids] = np.where(hit_acc, next_bp[acc], t[ids] + h[ids])
                X[ids] = res.x[acc]
                bp_idx[ids] += hit_acc
                grow = ~hit_acc & (dv_rows[acc] < 0.3 * opts.dv_max)
                h[ids] = np.where(hit_acc, restart_a[ids],
                                  np.where(grow,
                                           np.minimum(h[ids] * 1.5,
                                                      h_max_a[ids]),
                                           h[ids]))
                use_be[ids] = hit_acc
                halvings[ids] = 0
                group.update_state_lanes(ids, X[ids], be[acc], ha[acc])
                n_accepted[ids] += 1
                for k, t_k, x_k in zip(ids, t[ids].tolist(), res.x[acc]):
                    marches[k].history.append(t_k, x_k)
                if tracer is not None:
                    tracer.count("batch.tran.steps_accepted", int(acc.size))

        lanes: list = []
        errors: list = []
        reports: list = []
        for k, m in enumerate(marches):
            m.report.steps_accepted = int(n_accepted[k])
            m.report.steps_rejected_dv = int(n_rejected[k])
            m.report.total_halvings = int(n_halved[k])
            reports.append(m.error_report)
            if m.error is not None:
                lanes.append(None)
                errors.append(m.error)
                continue
            group.sync_state_lane(k)
            times, states = m.history.arrays()
            lanes.append(TransientResult(group.circuits[k], times, states,
                                         report=m.report))
            errors.append(None)
        return BatchTransientResult(lanes, errors, reports)
