"""Damped Newton-Raphson solver with policy-driven homotopy fallbacks.

The solver repeatedly assembles the linearized MNA system at the current
iterate and solves for the next one. Per-iteration voltage updates are
damped to a configurable maximum step, which is the single most
effective robustness measure for MOS circuits (exponential models
otherwise fling early iterates far outside the convergence basin).

If plain Newton fails, :func:`solve_dc` escalates through the fallback
ladder described by a :class:`~repro.runtime.policy.RetryPolicy`: gmin
stepping (solve with a large parallel conductance on every node, then
relax it geometrically) and then source stepping (ramp all independent
sources from zero). Every attempt is recorded in a
:class:`~repro.runtime.report.SolveReport`, attached to the
:class:`~repro.errors.ConvergenceError` when the whole ladder fails so
callers can see how close each strategy got.

An active :class:`~repro.runtime.faults.FaultPlan` (threaded explicitly
or ambient via :func:`repro.runtime.faults.inject`) can deterministically
force singular Jacobians, NaN residuals, or iteration exhaustion into
chosen strategies, which is how the ladder itself is tested.
"""

from __future__ import annotations

import math as _math
import time as _time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConvergenceError
from repro.runtime import telemetry
from repro.runtime.faults import FaultPlan, active_plan
from repro.runtime.policy import RetryPolicy
from repro.runtime.report import AttemptRecord, SolveReport
from repro.spice.assembly import SolverWorkspace
from repro.spice.integration import IntegratorState
from repro.spice.sparse import resolve_solver, sparse_plan_for

try:  # pragma: no cover - version-dependent private module
    # The gufunc np.linalg.solve dispatches to, minus the wrapper's
    # per-call type promotion and errstate setup (which costs as much
    # as the factorization itself at MNA sizes). Bitwise identical to
    # np.linalg.solve; a singular matrix yields non-finite entries
    # (caught by the solver's finiteness check) instead of raising.
    from numpy.linalg._umath_linalg import solve1 as _lapack_solve1
except ImportError:  # pragma: no cover
    _lapack_solve1 = None

# Cheap global work counters: Newton solves and iterations.
_SOLVES = 0
_ITERATIONS = 0


def reset_solve_stats() -> None:
    """Zero the global Newton solve/iteration counters."""
    global _SOLVES, _ITERATIONS
    _SOLVES = 0
    _ITERATIONS = 0


def _condition_estimate(matrix: np.ndarray) -> float | None:
    """1-norm condition estimate of the converged Jacobian, or None.

    Only computed when an ambient tracer asks for it (it costs an
    explicit inverse, O(n^3) — trivial at MNA sizes but never free).
    Runs under the solver's suppressed FP flags, so a singular matrix
    surfaces as a non-finite estimate and is filtered, not raised.
    """
    try:
        cond = float(np.linalg.cond(matrix, 1))
    except np.linalg.LinAlgError:
        return None
    return cond if np.isfinite(cond) and cond > 0.0 else None


def solve_stats() -> dict:
    """Counts of Newton solves and iterations since the last reset."""
    return {"solves": _SOLVES, "iterations": _ITERATIONS}


def add_solve_stats(solves: int = 0, iterations: int = 0) -> None:
    """Credit batched work to the global throughput counters.

    The batched backend (:mod:`repro.spice.batch`) performs many
    lane-solves per LAPACK call; it reports them here so solve
    counts stay comparable across backends (one lane
    converging in k iterations counts exactly like one serial solve
    of k iterations).
    """
    global _SOLVES, _ITERATIONS
    _SOLVES += solves
    _ITERATIONS += iterations


@dataclass
class NewtonOptions:
    """Tolerances and limits for the Newton iteration."""

    max_iterations: int = 150
    #: Absolute node-voltage tolerance [V].
    abstol_v: float = 1e-6
    #: Absolute branch-current tolerance [A].
    abstol_i: float = 1e-9
    #: Relative tolerance on the solution update.
    reltol: float = 1e-3
    #: Maximum per-iteration voltage change [V] (damping limit).
    max_step_v: float = 0.3
    #: Conductance floor for nonlinear devices.
    gmin: float = 1e-12
    #: Linear-solve kernel: "dense" (batched LAPACK), "sparse"
    #: (pattern-reuse LU, :mod:`repro.spice.sparse`), or "auto"
    #: (by system size). None defers to the ambient campaign scope
    #: (:func:`repro.spice.sparse.solver_scope`), which defaults to
    #: "auto". The resolution rule depends on the topology alone, so
    #: serial, batched, and sharded runs always pick the same kernel.
    solver: str | None = None


def newton_solve(circuit, x0: np.ndarray, time: float = 0.0,
                 integrator: Optional[IntegratorState] = None,
                 options: Optional[NewtonOptions] = None,
                 gmin: Optional[float] = None,
                 source_scale: float = 1.0,
                 strategy: str = "newton",
                 faults: Optional[FaultPlan] = None,
                 record: Optional[AttemptRecord] = None,
                 workspace: Optional[SolverWorkspace] = None) -> np.ndarray:
    """Run damped Newton from ``x0``; returns the converged solution.

    Args:
        strategy: retry-ladder stage label, used for diagnostics and
            for strategy-targeted fault injection.
        faults: explicit fault plan; defaults to the ambient plan
            activated via :func:`repro.runtime.faults.inject`.
        record: optional :class:`AttemptRecord` filled in with the
            iteration count, final residual, and outcome.
        workspace: caller-owned :class:`SolverWorkspace` to reuse across
            solves (retry ladders, transient steps). Created on the fly
            when omitted.

    Raises:
        ConvergenceError: if the iteration exceeds the budget or the
            matrix becomes singular.
    """
    global _SOLVES, _ITERATIONS
    opts = options or NewtonOptions()
    effective_gmin = opts.gmin if gmin is None else gmin
    plan = faults if faults is not None else active_plan()
    tracer = telemetry.active_tracer()
    ws = workspace if workspace is not None else SolverWorkspace(circuit)
    system = ws.system
    n_nodes = ws.n_nodes
    ws.begin_solve(time, integrator, effective_gmin, source_scale)
    x = np.array(x0, dtype=float, copy=True)
    # Damping exists to keep exponential device models inside their
    # convergence basin; a purely linear system solves exactly in one
    # step, and damping it would only throttle large (but exact)
    # voltage excursions.
    damped = ws.damped
    max_dv = 0.0
    _SOLVES += 1
    delta = np.empty_like(x)
    scratch = np.empty_like(x)
    # Kernel selection is deterministic in (mode, size) alone; the
    # sparse symbolic factorization is cached on the assembly plan, so
    # only the numeric refactor runs per iteration.
    sparse = (sparse_plan_for(ws.plan)
              if resolve_solver(opts.solver, ws.size) == "sparse"
              else None)

    def _fail(message: str, iterations: int,
              residual: float | None, injected: str | None = None,
              cause: BaseException | None = None):
        if record is not None:
            record.iterations = iterations
            record.residual = residual
            record.converged = False
            record.injected_fault = injected
            record.error = message
        if tracer is not None:
            tracer.count("newton.failures")
        error = ConvergenceError(message, iterations=iterations,
                                 residual=residual)
        if cause is not None:
            raise error from cause
        raise error

    # FP warnings are silenced for the whole loop (saved/restored via
    # seterr rather than a per-iteration errstate, which is measurable
    # at this call rate): the gufunc solve reports singular systems as
    # non-finite entries instead of raising, and no value computed
    # under the suppressed flags is ever used without the finiteness
    # check below.
    saved_err = np.seterr(invalid="ignore", over="ignore",
                          divide="ignore")
    try:
        for iteration in range(opts.max_iterations):
            injected = (plan.draw_solve(strategy=strategy, time=time)
                        if plan is not None else None)
            if injected == "iteration_exhaustion":
                _fail(f"injected iteration exhaustion in {strategy!r} "
                      "solve",
                      opts.max_iterations, max_dv if iteration else None,
                      injected)
            _ITERATIONS += 1
            ws.assemble_iteration(x)
            if injected == "singular_jacobian":
                # Corrupt the mechanism, not a shortcut: the zeroed
                # matrix makes the solve fail for real below.
                system.matrix[:, :] = 0.0
            elif injected == "nan_residual":
                system.rhs[:] = np.nan
            try:
                if sparse is not None:
                    # Never raises: a zero pivot divides to non-finite
                    # entries, classified by the finiteness check below
                    # with the same text as the dense path.
                    x_new = sparse.solve1(system.matrix, system.rhs)
                elif _lapack_solve1 is not None:
                    x_new = _lapack_solve1(system.matrix, system.rhs)
                else:
                    x_new = np.linalg.solve(system.matrix, system.rhs)
            except np.linalg.LinAlgError as exc:
                _fail(f"singular MNA matrix at iteration {iteration}"
                      + (" (injected)" if injected else ""),
                      iteration, max_dv if iteration else None, injected,
                      exc)
            if not np.isfinite(x_new).all():
                # The gufunc path reports a singular matrix as NaN/inf
                # entries rather than LinAlgError; keep the historical
                # diagnostic by classifying here (failure path only).
                suffix = " (injected)" if injected else ""
                if (np.isfinite(system.matrix).all()
                        and np.isfinite(system.rhs).all()):
                    _fail(f"singular MNA matrix at iteration {iteration}"
                          + suffix,
                          iteration, max_dv if iteration else None,
                          injected)
                _fail(f"non-finite solution at iteration {iteration}"
                      + suffix,
                      iteration, max_dv if iteration else None, injected)

            np.subtract(x_new, x, out=delta)
            np.abs(delta, out=scratch)
            max_dv = float(scratch[:n_nodes].max()) if n_nodes else 0.0
            n_branch = x.size - n_nodes
            max_di = float(scratch[n_nodes:].max()) if n_branch else 0.0

            # Damping: scale the whole update so no node moves more
            # than max_step_v in one iteration (nonlinear circuits
            # only). The updates below reuse the delta buffer in
            # place; the arithmetic (x + scale * delta) is unchanged.
            if damped and max_dv > opts.max_step_v:
                np.multiply(delta, opts.max_step_v / max_dv, out=delta)
                np.add(x, delta, out=x)
                continue  # a clamped step can't satisfy the tolerances
            np.add(x, delta, out=x)

            np.abs(x, out=scratch)
            v_tol = opts.abstol_v + opts.reltol * (
                float(scratch[:n_nodes].max()) if n_nodes else 0.0)
            if max_dv > v_tol:
                continue
            i_tol = opts.abstol_i + opts.reltol * (
                float(scratch[n_nodes:].max()) if n_branch else 0.0)
            if max_di <= i_tol:
                if record is not None:
                    record.iterations = iteration + 1
                    record.residual = max_dv
                    record.converged = True
                if tracer is not None:
                    tracer.observe("newton.iterations", iteration + 1)
                    if tracer.condition_estimates:
                        cond = _condition_estimate(system.matrix)
                        if cond is not None and cond >= 1.0:
                            tracer.observe("newton.condition_log10",
                                           _math.log10(cond))
                return x
    finally:
        np.seterr(**saved_err)

    _fail(f"Newton failed to converge in {opts.max_iterations} iterations "
          f"(last max dV = {max_dv:.3e} V)",
          opts.max_iterations, max_dv)


def solve_dc_report(circuit, x0: Optional[np.ndarray] = None,
                    options: Optional[NewtonOptions] = None,
                    policy: Optional[RetryPolicy] = None,
                    faults: Optional[FaultPlan] = None,
                    workspace: Optional[SolverWorkspace] = None,
                    ) -> tuple[np.ndarray, SolveReport]:
    """Find a DC solution; returns ``(x, report)``.

    Escalates through the strategies enabled by ``policy``, recording
    every attempt. On total failure raises :class:`ConvergenceError`
    carrying the full :class:`SolveReport` and the best attempt's
    iteration count and residual.

    With an ambient :class:`~repro.runtime.telemetry.Tracer` active the
    ladder additionally emits ``dc.*`` counters, the ladder-depth and
    wall-time histograms, and the ``phase.dc`` timer; with tracing
    disabled this wrapper costs one global read.
    """
    tracer = telemetry.active_tracer()
    if tracer is None:
        return _solve_dc_report_impl(circuit, x0, options, policy,
                                     faults, workspace)
    with tracer.phase("phase.dc"):
        try:
            x, report = _solve_dc_report_impl(circuit, x0, options,
                                              policy, faults, workspace)
        except ConvergenceError as error:
            tracer.count("dc.solves")
            tracer.count("dc.failed")
            if error.report is not None:
                tracer.observe("dc.ladder_depth",
                               len(error.report.attempts))
                tracer.observe("dc.wall_s", error.report.wall_time_s)
            raise
    tracer.count("dc.solves")
    tracer.count(f"dc.converged.{report.winning_strategy}")
    tracer.observe("dc.ladder_depth", len(report.attempts))
    tracer.observe("dc.wall_s", report.wall_time_s)
    return x, report


def _solve_dc_report_impl(circuit, x0: Optional[np.ndarray] = None,
                          options: Optional[NewtonOptions] = None,
                          policy: Optional[RetryPolicy] = None,
                          faults: Optional[FaultPlan] = None,
                          workspace: Optional[SolverWorkspace] = None,
                          ) -> tuple[np.ndarray, SolveReport]:
    opts = options or NewtonOptions()
    pol = policy or RetryPolicy()
    pol.validate()
    plan = faults if faults is not None else active_plan()
    ws = workspace if workspace is not None else SolverWorkspace(circuit)
    size = ws.size
    x0 = np.zeros(size) if x0 is None else np.asarray(x0, dtype=float)
    report = SolveReport()
    started = _time.monotonic()
    abandoned: str | None = None

    def _out_of_budget() -> str | None:
        elapsed = _time.monotonic() - started
        if (pol.max_wall_clock_s is not None
                and elapsed > pol.max_wall_clock_s):
            return (f"wall-clock budget {pol.max_wall_clock_s:g} s "
                    f"exhausted after {elapsed:.3f} s")
        if (pol.max_total_iterations is not None
                and report.total_iterations >= pol.max_total_iterations):
            return (f"iteration budget {pol.max_total_iterations} "
                    f"exhausted ({report.total_iterations} spent)")
        return None

    def _attempt(strategy: str, detail: str, guess: np.ndarray,
                 **kwargs) -> np.ndarray:
        record = AttemptRecord(strategy=strategy, detail=detail)
        report.attempts.append(record)
        return newton_solve(circuit, guess, options=opts,
                            strategy=strategy, faults=plan, record=record,
                            workspace=ws, **kwargs)

    def _success(strategy: str, x: np.ndarray):
        report.converged = True
        report.winning_strategy = strategy
        report.wall_time_s = _time.monotonic() - started
        return x, report

    try:
        return _success("newton", _attempt("newton", "plain", x0))
    except ConvergenceError:
        pass

    # Gmin stepping: solve heavily regularized, relax toward the target.
    if pol.enable_gmin_stepping and abandoned is None:
        abandoned = _out_of_budget()
        if abandoned is None:
            x = np.array(x0, copy=True)
            try:
                completed = True
                for g in tuple(pol.gmin_ladder) + (opts.gmin,):
                    abandoned = _out_of_budget()
                    if abandoned is not None:
                        completed = False
                        break
                    x = _attempt("gmin", f"gmin={g:g}", x, gmin=g)
                if completed:
                    return _success("gmin", x)
            except ConvergenceError:
                pass

    # Source stepping: ramp all independent sources up from zero.
    if pol.enable_source_stepping and abandoned is None:
        abandoned = _out_of_budget()
        if abandoned is None:
            x = np.zeros(size)
            try:
                completed = True
                for scale in pol.source_ramp:
                    abandoned = _out_of_budget()
                    if abandoned is not None:
                        completed = False
                        break
                    x = _attempt("source", f"scale={scale:g}", x,
                                 source_scale=scale)
                if completed and pol.source_ramp:
                    return _success("source", x)
            except ConvergenceError:
                pass

    report.converged = False
    report.abandoned_reason = abandoned
    report.wall_time_s = _time.monotonic() - started
    best = report.best_attempt()
    message = (f"DC solution not found for circuit {circuit.title!r} after "
               f"{len(report.attempts)} attempts"
               + (f" ({report.strategy_summary()})" if report.attempts
                  else ""))
    if abandoned:
        message += f"; {abandoned}"
    raise ConvergenceError(
        message,
        iterations=best.iterations if best is not None else None,
        residual=best.residual if best is not None else None,
        report=report)


def solve_dc(circuit, x0: Optional[np.ndarray] = None,
             options: Optional[NewtonOptions] = None,
             policy: Optional[RetryPolicy] = None,
             faults: Optional[FaultPlan] = None) -> np.ndarray:
    """Find a DC solution, escalating through homotopy methods."""
    x, _ = solve_dc_report(circuit, x0, options=options, policy=policy,
                           faults=faults)
    return x
