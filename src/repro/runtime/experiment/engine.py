"""The experiment engine: one executor for every campaign.

:func:`run_experiment` runs an :class:`ExperimentSpec` and returns a
:class:`ResultSet`. It composes the pieces PR 1 and PR 2 built —
:func:`repro.runtime.parallel.parallel_map` for process-pool
distribution, :class:`repro.runtime.faults.FaultPlan` for deterministic
fault injection, and campaign quarantine — so every driver gets, for
free:

* **workers** — ``spec.workers > 1`` distributes points over a process
  pool, one point per task, so an idle worker always takes the next
  pending point; results are bitwise identical to a serial run because
  the measurement derives everything from its point params.
* **quarantine** — a point whose measurement raises is recorded as an
  ``err`` row (with stage and error text) instead of aborting, with an
  optional ``max_failures`` abort threshold.
* **progress isolation** — a progress callback that raises is warned
  about once and disabled; an observability hook can never take down a
  campaign. ``KeyboardInterrupt`` from a callback *does* propagate (it
  is the supported way to stop a campaign from a hook).
* **Ctrl-C partials** — interruption returns the rows completed so far
  with ``interrupted=True`` instead of raising.
* **seed-stable resume** — a previous (partial) :class:`ResultSet` for
  the same experiment carries its rows over; only missing indices are
  measured. Because measurements derive from point params alone, a
  resumed run is bitwise identical to a straight one.
* **artifacts** — pass ``store=`` to persist the run (rows + provenance
  manifest) through :class:`~repro.runtime.experiment.store.ArtifactStore`.
* **solve cache** — pass ``cache=`` (a
  :class:`~repro.runtime.cache.SolveCache` or a root path) to memoize
  point results across campaigns by content key; hits skip the
  measurement entirely and are bitwise identical to cold solves
  because payloads round-trip through the spec's codec.
* **SIGTERM parity** — inside the engine, SIGTERM behaves exactly like
  Ctrl-C: partial rows come back with ``interrupted=True`` and the
  artifact store writes a resumable manifest, so container/CI kills
  (which send SIGTERM, not SIGINT) never lose completed work.

Fault-injection campaigns run serially regardless of ``workers``: plans
count firings in mutable in-process state that a pool cannot share.
They also bypass the solve cache in both directions — an injected
failure is not content-derivable, so it must never be stored *or*
served.
"""

from __future__ import annotations

import logging
import time
import warnings
from contextlib import nullcontext

from repro.errors import AnalysisError
from repro.runtime import telemetry
from repro.runtime.cache import as_cache, experiment_point_key
from repro.runtime.experiment.resultset import ResultRow, ResultSet, get_codec
from repro.runtime.experiment.spec import BatchPointFailure, ExperimentSpec
from repro.runtime.faults import inject
from repro.runtime.parallel import parallel_map
from repro.runtime.signals import sigterm_interrupts
from repro.spice.newton import add_solve_stats, solve_stats
from repro.spice.sparse import solver_scope

_LOG = logging.getLogger("repro.runtime.experiment")


def _stats_delta(before: dict) -> tuple:
    """Solve-counter delta since ``before``, undone locally.

    Pool workers accumulate solve counters in their own process, where
    the campaign can't see them; each worker therefore measures its own
    delta, *subtracts it back out locally*, and ships it home with the
    outcome for the parent to re-add. The undo makes the trick a no-op
    composition in-process too (serial short-circuit), so every backend
    reports solves/iterations identically.
    """
    after = solve_stats()
    ds = after["solves"] - before["solves"]
    di = after["iterations"] - before["iterations"]
    add_solve_stats(-ds, -di)
    return (ds, di)


def _measure_worker(task: tuple, context: tuple):
    """Run one point's measurement; shared by serial and pool paths.

    Module-level so the process pool can pickle it by reference. The
    task is just ``(index, params)``; everything task-invariant
    (measure function, stage, trace mode, solver) rides in ``context``.
    Per-point failures are encoded in the return value rather than
    raised — quarantine must survive the pool boundary. Trace mode and
    solver ride in the context (never in ambient process state) so
    pooled workers behave exactly like a serial run; each point gets a
    fresh tracer and its snapshot comes back with the outcome, as does
    the point's solve-counter delta.
    """
    index, params = task
    measure, stage, trace_mode, solver = context
    snap = None
    before = solve_stats()
    try:
        with solver_scope(solver):
            if trace_mode is None:
                value = measure(params)
            else:
                tracer = telemetry.make_tracer(trace_mode)
                try:
                    with telemetry.trace(tracer):
                        value = measure(params)
                finally:
                    # Failed points keep their partial trace — a
                    # diverging corner's convergence record is exactly
                    # what the outlier report is for.
                    snap = tracer.snapshot()
    except Exception as exc:
        return ("err", index, stage, f"{type(exc).__name__}: {exc}",
                snap, _stats_delta(before))
    return ("ok", index, value, snap, _stats_delta(before))


def _batch_chunk_worker(task: tuple, context: tuple):
    """Evaluate one lane-group chunk; shared by in-process and sharded.

    One task is one ``batch_measure`` call: ``(indices, params_list)``.
    Lane failures come back as :class:`BatchPointFailure` values and
    are normalized to err outcomes; a chunk whose batched call itself
    raises is **evicted in-worker** to the per-point measure (same
    results, serial speed, still inside this worker's shard) and the
    exception text is returned so the parent can log why. Returns
    ``(outcomes, evicted_reason_or_None, stats_delta)``.
    """
    indices, params_list = task
    batch_measure, measure, stage, solver = context
    before = solve_stats()
    evicted = None
    outcomes = []
    with solver_scope(solver):
        try:
            values = batch_measure(list(params_list))
            if len(values) != len(params_list):
                raise AnalysisError(
                    f"batch_measure returned {len(values)} values for "
                    f"{len(params_list)} points")
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            evicted = f"{type(exc).__name__}: {exc}"
            values = None
        if values is None:
            for index, params in zip(indices, params_list):
                try:
                    value = measure(params)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    outcomes.append(("err", index, stage,
                                     f"{type(exc).__name__}: {exc}"))
                else:
                    outcomes.append(("ok", index, value))
        else:
            for index, value in zip(indices, values):
                if isinstance(value, BatchPointFailure):
                    outcomes.append(("err", index, value.stage or stage,
                                     value.error))
                else:
                    outcomes.append(("ok", index, value))
    return (outcomes, evicted, _stats_delta(before))


def run_experiment(spec: ExperimentSpec, *, progress=None, resume=None,
                   store=None, run_id: str | None = None,
                   cache=None) -> ResultSet:
    """Execute ``spec`` and return its :class:`ResultSet`.

    Args:
        progress: optional callable ``(index, payload)`` invoked after
            each successful point, in completion order. Exceptions it
            raises are isolated (warned once, then suppressed).
        resume: a previous :class:`ResultSet` for the same experiment
            (in-memory partial or one loaded from an artifact store);
            its rows are carried over and only missing indices run.
        store: an :class:`~repro.runtime.experiment.store.ArtifactStore`
            (or a root-directory path) to persist the finished run to;
            None skips persistence.
        run_id: explicit run id for the artifact store (None = derive
            one from the spec name and wall clock).
        cache: a :class:`~repro.runtime.cache.SolveCache` (or a cache
            root path) memoizing point results by content key across
            campaigns; None disables caching. Ignored for
            fault-injection campaigns (injected outcomes are not
            content-derivable and must never be stored or served).

    Returns a partial result (``interrupted=True``) instead of raising
    on KeyboardInterrupt — or on SIGTERM, which the engine remaps to
    the same interrupt path; per-point errors are quarantined into
    ``err`` rows rather than raised.
    """
    spec.validate()
    started = time.perf_counter()
    trace_mode = (spec.trace if spec.trace is not None
                  else telemetry.campaign_trace_mode())
    traces: dict = {}

    ordinals = {point.index: n for n, point in enumerate(spec.points)}
    rows: list[ResultRow] = []
    if resume is not None:
        if not isinstance(resume, ResultSet):
            raise AnalysisError(
                f"resume must be a ResultSet, got {type(resume).__name__}")
        if resume.name != spec.name:
            raise AnalysisError(
                f"cannot resume experiment {spec.name!r} from a "
                f"{resume.name!r} result set")
        # Carried rows keep their identity; rows whose index is no
        # longer in the spec sort after the live points (matches the
        # legacy drivers, which carried every completed sample over).
        extra = len(spec.points)
        for row in resume.rows:
            ordinal = ordinals.get(row.index)
            if ordinal is None:
                ordinal, extra = extra, extra + 1
            rows.append(ResultRow(ordinal=ordinal, index=row.index,
                                  status=row.status, value=row.value,
                                  stage=row.stage, error=row.error))
    done = {row.index for row in rows}
    pending = [point for point in spec.points if point.index not in done]

    failures = sum(1 for row in rows if not row.ok)
    progress_broken = False
    interrupted = False

    cache = as_cache(cache) if spec.faults is None else None
    cache_keys: dict = {}
    cache_hits: list = []
    if cache is not None:
        encode, decode = get_codec(spec.codec)
        still_pending = []
        for point in pending:
            key = experiment_point_key(spec, point.params)
            cache_keys[point.index] = key
            hit, payload = cache.get(key)
            if hit:
                rows.append(ResultRow(ordinal=ordinals[point.index],
                                      index=point.index, status="ok",
                                      value=decode(payload)))
                cache_hits.append((point.index, rows[-1].value))
            else:
                still_pending.append(point)
        pending = still_pending

    def _cache_store(index, value) -> None:
        """Commit a freshly measured point; misses only, never faults."""
        if cache is None:
            return
        key = cache_keys.get(index)
        if key is not None:
            cache.put(key, encode(value))

    def _quarantine(ordinal: int, index, stage: str, error: str) -> None:
        nonlocal failures
        rows.append(ResultRow(ordinal=ordinal, index=index, status="err",
                              stage=stage, error=error))
        failures += 1
        if (spec.max_failures is not None
                and failures > spec.max_failures):
            raise AnalysisError(
                f"{spec.name} aborted: {failures} sample failures "
                f"exceed max_failures={spec.max_failures}; last: "
                f"{index}: [{stage}] {error}")

    def _progress(index, value) -> None:
        nonlocal progress_broken
        if progress is None or progress_broken:
            return
        try:
            progress(index, value)
        except Exception as exc:
            progress_broken = True
            warnings.warn(
                f"{spec.name} progress callback raised "
                f"{type(exc).__name__}: {exc}; further calls "
                f"suppressed, campaign continues", RuntimeWarning,
                stacklevel=3)

    # SIGTERM (container/CI kill) must take the same partial-results
    # path as Ctrl-C; the scope is entered manually so the existing
    # interrupt handling below stays at one indentation level.
    _term_scope = sigterm_interrupts()
    _term_scope.__enter__()
    try:
        for index, value in cache_hits:
            _progress(index, value)
        if spec.faults is not None:
            # Fault campaigns count firings in mutable in-process state
            # and scope the ambient plan per point; both are invisible
            # across a pool boundary, so they always run serially.
            for point in pending:
                index = point.index
                ordinal = ordinals[index]
                if spec.faults.fires("sample_failure", sample=index):
                    _quarantine(ordinal, index, "injected",
                                "injected sample failure")
                    continue
                scope = (spec.faults.sample_scope(index)
                         if isinstance(index, int) else nullcontext())
                tracer = (telemetry.make_tracer(trace_mode)
                          if trace_mode is not None else None)
                trace_scope = (telemetry.trace(tracer)
                               if tracer is not None else nullcontext())
                try:
                    with scope, inject(spec.faults), trace_scope, \
                            solver_scope(spec.solver):
                        value = spec.measure(point.params)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    if tracer is not None:
                        traces[index] = tracer.snapshot()
                    _quarantine(ordinal, index, spec.stage,
                                f"{type(exc).__name__}: {exc}")
                    continue
                if tracer is not None:
                    traces[index] = tracer.snapshot()
                rows.append(ResultRow(ordinal=ordinal, index=index,
                                      status="ok", value=value))
                _progress(index, value)
        elif spec.resolved_backend() == "batched" and trace_mode is None:
            # SPMD lanes: whole chunks of points go through one
            # vectorized batch_measure call. With ``workers > 1`` this
            # is the *sharded-batched* mode: each chunk is one
            # LaneGroup-sized shard, shipped whole to a pool worker
            # that runs the batched Newton/transient on it, with the
            # task-invariant context (batch_measure, measure, stage,
            # solver) pickled once per shard. Per-lane failures come
            # back as BatchPointFailure values and quarantine exactly
            # like a raised serial measurement; a chunk whose batched
            # call itself raises is *evicted to the per-point measure
            # in-worker* (same results, serial speed) rather than
            # lost, and the reason is logged here. Tracing campaigns
            # take the per-point path instead (the branch above this
            # one never sees trace_mode set) so traces aggregate
            # exactly like a serial run.
            width = spec.batch_width
            chunk_tasks = []
            for start in range(0, len(pending), width):
                chunk = pending[start:start + width]
                chunk_tasks.append(
                    (tuple(point.index for point in chunk),
                     [point.params for point in chunk]))
            batch_context = (spec.batch_measure, spec.measure,
                             spec.stage, spec.solver)
            for outcomes, evicted, stats in parallel_map(
                    _batch_chunk_worker, chunk_tasks,
                    workers=spec.workers, context=batch_context):
                add_solve_stats(*stats)
                if evicted is not None:
                    _LOG.warning(
                        "%s: batch_measure failed for a %d-point chunk "
                        "(%s); chunk evicted to the per-point measure",
                        spec.name, len(outcomes), evicted)
                for outcome in outcomes:
                    if outcome[0] == "ok":
                        _, index, value = outcome
                        rows.append(ResultRow(ordinal=ordinals[index],
                                              index=index, status="ok",
                                              value=value))
                        _cache_store(index, value)
                        _progress(index, value)
                    else:
                        _, index, stage, message = outcome
                        _quarantine(ordinals[index], index, stage,
                                    message)
        else:
            # An explicit "serial" backend stays in-process whatever
            # ``workers`` says (the CLI defaults it to every CPU).
            workers = 1 if spec.backend == "serial" else spec.workers
            tasks = [(point.index, point.params) for point in pending]
            point_context = (spec.measure, spec.stage, trace_mode,
                             spec.solver)
            for outcome in parallel_map(_measure_worker, tasks,
                                        workers=workers,
                                        context=point_context):
                add_solve_stats(*outcome[-1])
                if outcome[0] == "ok":
                    _, index, value, snap, _stats = outcome
                    if snap is not None:
                        traces[index] = snap
                    rows.append(ResultRow(ordinal=ordinals[index],
                                          index=index, status="ok",
                                          value=value))
                    _cache_store(index, value)
                    _progress(index, value)
                else:
                    _, index, stage, message, snap, _stats = outcome
                    if snap is not None:
                        traces[index] = snap
                    _quarantine(ordinals[index], index, stage, message)
    except KeyboardInterrupt:
        interrupted = True
    finally:
        _term_scope.__exit__(None, None, None)

    rows.sort(key=lambda row: row.ordinal)
    result = ResultSet(name=spec.name, codec=spec.codec,
                       metadata=dict(spec.metadata), rows=rows,
                       interrupted=interrupted)
    if trace_mode is not None:
        # Snapshots merge in canonical row order (never completion
        # order), so a pooled campaign aggregates exactly like a serial
        # one. Resumed rows carried over without traces are skipped.
        result.trace = telemetry.aggregate_traces(
            [(row.index, traces.get(row.index)) for row in rows],
            trace_mode)
    wall_s = time.perf_counter() - started
    if store is not None:
        from repro.runtime.experiment.store import ArtifactStore
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        store.write(result, spec=spec, wall_s=wall_s, run_id=run_id)
    return result
