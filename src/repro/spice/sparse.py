"""KLU-style sparse pattern-reuse LU for the batched Newton loop.

Every circuit in a campaign shares one topology, so every Newton
iteration factorizes a matrix with the *same* sparsity pattern — only
the values change. Dense LAPACK re-discovers that structure from
scratch at every solve, which is O(n^3) regardless of how empty the
matrix is. This module does what KLU does for SPICE engines: perform
the **symbolic factorization once per topology** and then only
**refactorize numerically** at each iteration:

* :func:`structural_pattern` derives the fixed nonzero pattern of a
  supported :class:`~repro.spice.assembly.AssemblyPlan` — the union of
  the DC and transient base-matrix COO templates, the MOSFET stamp
  positions, and the gmin diagonal — so any value the solver can ever
  write is inside the pattern.
* :class:`SparsePlan` computes, once, a static row permutation (a
  maximum transversal, so every diagonal pivot is structurally
  nonzero — MNA branch rows natively carry a zero diagonal) and the
  complete fill-in of a no-pivoting LU in natural column order. The
  per-elimination-step index arrays (`rows_k`, `cols_k`) are
  precomputed; the numeric phase is a fixed sequence of vectorized
  gather/scatter updates with **no data-dependent control flow**.
* :meth:`SparsePlan.solve` factors and substitutes a whole ``(L, n,
  n)`` lane stack at once. Each elimination update and each
  substitution reduction applies the identical float operations to
  every lane, and every per-lane reduction (`np.sum` over the last
  axis) is pairwise over the same element count regardless of the lane
  count — so a lane's solution is **bitwise invariant to batch
  membership**, exactly like the dense gufunc path.

**Equivalence contract.** Sparse and dense solutions of the same
system agree only to a small ULP bound (different elimination order =
different rounding; ``tests/spice/test_sparse_equivalence.py`` pins
the bound with a negative control). The 0-ULP serial-vs-batched
contract is therefore preserved differently: the *solver selection
rule is deterministic in the topology alone* (:func:`resolve_solver`),
so a serial run and any sharding of the batched run pick the same
kernel and replay the same float ops. A singular system surfaces as a
division by a zero pivot — non-finite entries under the solver's
suppressed FP flags — which the existing finiteness check classifies
with the same failure text as the dense path.

**When sparse wins.** The numeric refactor costs O(nnz(L+U)) flops in
``n`` Python-level steps, versus dense LAPACK's O(n^3) at C speed.
For the paper's shifter testbenches (n ≈ 20) dense wins easily; for
the SoC-scale chained workloads ROADMAP items 3-4 target, the sparse
path overtakes it. The crossover was measured by a since-retired
``sparse_crossover`` benchmark workload and baked into
:data:`SPARSE_AUTO_THRESHOLD`; ``solver="auto"`` (the default)
switches on matrix size only, so the choice is reproducible
everywhere.
"""

from __future__ import annotations

import contextlib
from typing import Optional

import numpy as np

from repro.errors import AnalysisError

#: ``solver="auto"`` picks the sparse path at and above this MNA system
#: size. Calibrated with the retired ``sparse_crossover`` benchmark
#: workload (recorded in ``BENCH_PR7.json``): on the reference
#: container, for ladder-of-shifter-cells topologies, the vectorized
#: sparse refactor overtakes batched dense LAPACK near n≈200 at
#: campaign lane widths (16 lanes) and near n≈360 at 4 lanes;
#: single-lane dense stays ahead longer still. The
#: threshold sits at the wide-batch crossover because that is where
#: SoC-scale campaigns actually run, and the rule must stay a function
#: of topology alone (never lane count) to preserve the bitwise
#: serial/batched/sharded identity — narrow-lane solves above the
#: threshold knowingly pay a constant factor for that determinism.
#: Every paper-scale testbench (n ≲ 40) stays dense by a wide margin.
SPARSE_AUTO_THRESHOLD = 200

#: The solver modes a caller may name. ``auto`` resolves by system
#: size; the explicit modes force one kernel (used by the equivalence
#: harness and the crossover bench).
SOLVER_MODES = ("auto", "dense", "sparse")

#: Ambient default applied when NewtonOptions.solver is None. Set per
#: campaign through :func:`solver_scope`; workers receive the mode in
#: their task tuple and enter the scope themselves, so pooled runs
#: never depend on inherited process state.
_AMBIENT_SOLVER: str = "auto"


def ambient_solver() -> str:
    """The process-wide default solver mode (``auto`` unless scoped)."""
    return _AMBIENT_SOLVER


@contextlib.contextmanager
def solver_scope(mode: Optional[str]):
    """Ambiently select a solver mode for the enclosed solves.

    ``None`` keeps the current default (nested scopes compose). The
    experiment engine wraps each measurement in the spec's mode so
    campaign drivers need no per-call threading.
    """
    global _AMBIENT_SOLVER
    if mode is None:
        yield
        return
    validate_solver(mode)
    previous = _AMBIENT_SOLVER
    _AMBIENT_SOLVER = mode
    try:
        yield
    finally:
        _AMBIENT_SOLVER = previous


def validate_solver(mode: str) -> None:
    if mode not in SOLVER_MODES:
        raise AnalysisError(
            f"solver must be one of {SOLVER_MODES}, got {mode!r}")


def resolve_solver(mode: Optional[str], size: int) -> str:
    """Resolve a requested mode to ``"dense"`` or ``"sparse"``.

    The rule is deterministic in (mode, system size) alone — never in
    lane count, shard count, or batch width — so serial, batched, and
    sharded-batched runs of one topology always agree on the kernel.
    """
    mode = _AMBIENT_SOLVER if mode is None else mode
    validate_solver(mode)
    if mode == "auto":
        return "sparse" if size >= SPARSE_AUTO_THRESHOLD else "dense"
    return mode


def structural_pattern(plan) -> np.ndarray:
    """Fixed ``(size, size)`` nonzero pattern of a supported plan.

    Unions every position any regime can write: DC and transient base
    templates, MOSFET stamp quads, and the gmin node diagonal. Returns
    None when the plan is unsupported (opaque devices can stamp
    anywhere; those circuits stay on the dense path).
    """
    if not plan.supported:
        return None
    naug = plan.naug
    mask = np.zeros(naug * naug, dtype=bool)
    mask[plan._mat_dc[0]] = True
    mask[plan._mat_tr[0]] = True
    if plan.mosfet_group is not None:
        mask[plan.mosfet_group.mat_flat] = True
    mask[plan._diag_flat] = True
    square = mask.reshape(naug, naug)[:plan.size, :plan.size]
    return np.ascontiguousarray(square)


def _maximum_transversal(pattern: np.ndarray) -> Optional[np.ndarray]:
    """Row permutation putting a structural nonzero on every diagonal.

    Classic augmenting-path bipartite matching (columns to rows),
    seeded with the identity so well-formed node rows keep their
    natural position and only branch rows move. Returns ``perm`` with
    ``pattern[perm[k], k]`` True for all k, or None when no perfect
    matching exists (a structurally singular system — left to the
    dense path, whose LAPACK factorization reports it as such).
    """
    n = pattern.shape[0]
    row_of_col = np.full(n, -1, dtype=np.intp)
    col_of_row = np.full(n, -1, dtype=np.intp)
    for k in range(n):
        if pattern[k, k] and col_of_row[k] < 0:
            row_of_col[k] = k
            col_of_row[k] = k
    rows_by_col = [np.nonzero(pattern[:, k])[0] for k in range(n)]

    def augment(col: int, visited: np.ndarray) -> bool:
        for row in rows_by_col[col]:
            if visited[row]:
                continue
            visited[row] = True
            if col_of_row[row] < 0 or augment(col_of_row[row], visited):
                row_of_col[col] = row
                col_of_row[row] = col
                return True
        return False

    for k in range(n):
        if row_of_col[k] < 0:
            if not augment(k, np.zeros(n, dtype=bool)):
                return None
    return row_of_col


class SparseUnsupported(AnalysisError):
    """The pattern cannot take the sparse path; use the dense kernel."""


class SparsePlan:
    """One topology's symbolic factorization, reused for every solve.

    Construction runs the symbolic phase: permute, eliminate the
    boolean pattern tracking fill-in, and freeze the per-step scatter
    index arrays. :meth:`solve` then runs only the numeric phase.
    """

    def __init__(self, pattern: np.ndarray):
        pattern = np.asarray(pattern, dtype=bool)
        if pattern.ndim != 2 or pattern.shape[0] != pattern.shape[1]:
            raise SparseUnsupported("pattern must be square")
        n = pattern.shape[0]
        perm = _maximum_transversal(pattern)
        if perm is None:
            raise SparseUnsupported(
                "structurally singular pattern (no perfect matching); "
                "the dense path reports this system as singular")
        self.n = n
        self.perm = perm
        filled = pattern[perm].copy()
        # Symbolic elimination in natural order on the permuted
        # pattern; `filled` accumulates the L+U structure.
        steps = []
        for k in range(n):
            rows = np.nonzero(filled[k + 1:, k])[0] + (k + 1)
            cols = np.nonzero(filled[k, k + 1:])[0] + (k + 1)
            if rows.size and cols.size:
                filled[np.ix_(rows, cols)] = True
            steps.append((np.ascontiguousarray(rows),
                          np.ascontiguousarray(cols)))
        self._steps = steps
        # Upper-triangle structure per row, for back substitution.
        self._urows = [np.nonzero(filled[k, k + 1:])[0] + (k + 1)
                       for k in range(n)]
        #: Nonzeros of L+U — the numeric refactor's flop count; the
        #: crossover bench reports it alongside the wall times.
        self.nnz_factor = int(filled.sum())

    # -- numeric phase ----------------------------------------------------

    def solve(self, matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Factor + substitute a ``(L, n, n)`` stack in one pass.

        Runs under the caller's suppressed FP flags: a numerically
        zero pivot divides to inf/nan, which propagates into that
        lane's solution and is classified by the caller's finiteness
        check — the same convention as the dense gufunc. Other lanes
        are untouched (all updates are elementwise per lane).
        """
        A = np.ascontiguousarray(matrices[:, self.perm, :], dtype=float)
        y = np.ascontiguousarray(rhs[:, self.perm], dtype=float)
        n = self.n
        # Numeric LU on the fixed pattern: A becomes L (unit diagonal,
        # factors stored below) + U in place.
        for k, (rows, cols) in enumerate(self._steps):
            if not rows.size:
                continue
            f = A[:, rows, k] / A[:, k, k][:, None]
            A[:, rows, k] = f
            if cols.size:
                A[:, rows[:, None], cols[None, :]] -= \
                    f[:, :, None] * A[:, k, cols][:, None, :]
        # Forward substitution (L y' = P b) reuses the step structure.
        for k, (rows, _) in enumerate(self._steps):
            if rows.size:
                y[:, rows] -= A[:, rows, k] * y[:, k][:, None]
        # Back substitution (U x = y').
        x = np.empty_like(y)
        for k in range(n - 1, -1, -1):
            cols = self._urows[k]
            acc = y[:, k]
            if cols.size:
                # The mixed scalar+array gather yields an F-ordered
                # view, and numpy only sums a *contiguous* axis
                # pairwise — strided rows fall back to sequential
                # order, which would make the reduction (and the
                # lane's bits) depend on the lane count. Force the
                # product buffer C-contiguous so every lane reduces
                # pairwise over the same element count, batched or
                # alone.
                prod = np.ascontiguousarray(A[:, k, cols] * x[:, cols])
                acc = acc - prod.sum(axis=1)
            x[:, k] = acc / A[:, k, k]
        return x

    def solve1(self, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Single-system convenience used by the serial Newton loop."""
        return self.solve(matrix[None], rhs[None])[0]


def sparse_plan_for(assembly_plan) -> Optional[SparsePlan]:
    """The (cached) :class:`SparsePlan` of an assembly plan, or None.

    Cached on the assembly plan itself so every workspace and lane
    group of one circuit shares a single symbolic factorization —
    pattern-reuse is the whole point. Unsupported plans and
    structurally singular patterns return None; callers fall back to
    the dense kernel (which reports genuine singularity itself).
    """
    cached = getattr(assembly_plan, "_sparse_plan", False)
    if cached is not False:
        return cached
    pattern = structural_pattern(assembly_plan)
    plan = None
    if pattern is not None:
        try:
            plan = SparsePlan(pattern)
        except SparseUnsupported:
            plan = None
    assembly_plan._sparse_plan = plan
    return plan
