"""The experiment engine: one executor for every campaign.

:func:`run_experiment` runs an :class:`ExperimentSpec` and returns a
:class:`ResultSet`. It composes the pieces PR 1 and PR 2 built —
:func:`repro.runtime.parallel.parallel_map` for process-pool
distribution, :class:`repro.runtime.faults.FaultPlan` for deterministic
fault injection, and campaign quarantine — so every driver gets, for
free:

* **lanes by default** — a spec with a ``batch_measure`` runs its
  points as SPMD lanes (see :mod:`repro.spice.batch`) unless it names
  the ``"serial"`` backend, is traced, leaves the backend implicit
  under an ambient collecting tracer, or carries a fault plan; those
  measure one point at a time. Batched lanes are bitwise the serial
  points, so the choice moves only the wall time.
* **workers** — ``spec.workers > 1`` distributes chunks over a process
  pool: one point per task on the per-point path, and on the lane path
  ``min(batch_width, ceil(pending / workers))`` points per task, so a
  small campaign still spreads over every worker. An idle worker
  always takes the next pending task; results are bitwise identical
  to a serial run because the measurement derives everything from its
  point params.
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

Every point runs through one worker, :func:`_chunk_worker`, over
chunks of ``(indices, params_list)`` cut by :func:`plan_chunks`: a
whole lane group per call on the lane path, one point per chunk
otherwise. The bookkeeping around it — resume carry-over, cache
lookup and store, quarantine, progress isolation, the SIGTERM scope,
trace aggregation and persistence — lives in :class:`_Campaign`,
which the supervised :class:`~repro.runtime.service.CampaignService`
reuses unchanged.

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


def _measure_point(index, params, context) -> tuple:
    """One point through the per-point ``measure``, as an outcome.

    In a fault campaign the plan's ``sample_failure`` firing comes
    first, then the point measures inside its sample scope with the
    plan active. A traced point gets a fresh tracer whose snapshot
    rides home in the outcome — failed points included, since a
    diverging corner's convergence record is exactly what the outlier
    report is for.
    """
    measure, _, stage, trace_mode, solver, faults = context
    if faults is not None and faults.fires("sample_failure", sample=index):
        return (index, "err", None, "injected", "injected sample failure",
                None)
    sample = (faults.sample_scope(index)
              if faults is not None and isinstance(index, int)
              else nullcontext())
    tracer = (telemetry.make_tracer(trace_mode)
              if trace_mode is not None else None)
    traced = telemetry.trace(tracer) if tracer is not None else nullcontext()
    try:
        with sample, inject(faults), traced, solver_scope(solver):
            value = measure(params)
    except Exception as exc:
        snap = tracer.snapshot() if tracer is not None else None
        return (index, "err", None, stage, f"{type(exc).__name__}: {exc}",
                snap)
    snap = tracer.snapshot() if tracer is not None else None
    return (index, "ok", value, None, None, snap)


def _chunk_worker(task: tuple, context: tuple):
    """Measure one chunk of points; the engine's only worker.

    Module-level so the process pool can pickle it by reference. The
    task is ``(indices, params_list)``; everything task-invariant
    (measure, batch_measure, stage, trace mode, solver, fault plan)
    rides in ``context``, never in ambient process state, so pooled
    workers behave exactly like a serial run.

    With a ``batch_measure`` in the context the chunk is one lane
    group and one batched call; lane failures come back as
    :class:`BatchPointFailure` values and become err outcomes. A call
    that raises or returns the wrong number of values **evicts** the
    chunk to the per-point measure in-worker (same results, serial
    speed) and the reason comes back for the parent to log.

    Per-point failures are encoded in the outcomes rather than raised —
    quarantine must survive the pool boundary. Each outcome is
    ``(index, status, value, stage, error, trace)``. Returns
    ``(outcomes, evicted_reason_or_None, stats_delta)``.
    """
    indices, params_list = task
    _, batch_measure, stage, _, solver, _ = context
    before = solve_stats()
    evicted = None
    if batch_measure is not None:
        try:
            with solver_scope(solver):
                values = batch_measure(list(params_list))
            if len(values) != len(params_list):
                raise AnalysisError(
                    f"batch_measure returned {len(values)} values for "
                    f"{len(params_list)} points")
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            evicted = f"{type(exc).__name__}: {exc}"
        else:
            outcomes = [
                (index, "err", None, value.stage or stage, value.error,
                 None)
                if isinstance(value, BatchPointFailure)
                else (index, "ok", value, None, None, None)
                for index, value in zip(indices, values)]
            return (outcomes, None, _stats_delta(before))
    outcomes = [_measure_point(index, params, context)
                for index, params in zip(indices, params_list)]
    return (outcomes, evicted, _stats_delta(before))


def plan_chunks(pending: list, width: int, workers: int) -> list:
    """Split ``pending`` into consecutive chunks, one pool task each.

    A chunk holds ``min(width, ceil(len(pending) / workers))`` points,
    so a campaign smaller than ``workers * width`` spreads evenly over
    every worker instead of filling one full-width lane group and
    leaving the others idle. Lane width changes no bits, only how the
    work is shared out. ``width=1`` is the per-point plan.
    """
    if not pending:
        return []
    size = min(width, -(-len(pending) // workers))
    return [pending[start:start + size]
            for start in range(0, len(pending), size)]


class _Campaign:
    """One campaign's bookkeeping, whoever dispatches its points.

    :func:`run_experiment` feeds it outcomes from a
    :func:`parallel_map` loop; the supervised
    :class:`~repro.runtime.service.CampaignService` feeds it outcomes
    reaped from its chunk files. Either way the same object carries
    resumed rows over (rows whose index is no longer in the spec sort
    after the live points), serves and stores cache entries, turns
    outcomes into rows with quarantine and the ``max_failures`` abort,
    isolates the progress callback, maps SIGTERM onto the Ctrl-C
    partial-result path, and assembles and persists the
    :class:`ResultSet`.
    """

    def __init__(self, spec: ExperimentSpec, *, progress=None,
                 resume=None, trace_mode: str | None = None):
        self._spec = spec
        self._started = time.perf_counter()
        self._trace_mode = trace_mode
        self._ordinals = {point.index: n
                         for n, point in enumerate(spec.points)}
        self._rows: list[ResultRow] = []
        self.hits: list = []
        self._interrupted = False
        self._traces: dict = {}
        self._progress_fn = progress
        self._cache = self._encode = None
        self._keys: dict = {}
        if resume is not None:
            if not isinstance(resume, ResultSet):
                raise AnalysisError(
                    f"resume must be a ResultSet, got "
                    f"{type(resume).__name__}")
            if resume.name != spec.name:
                raise AnalysisError(
                    f"cannot resume experiment {spec.name!r} from a "
                    f"{resume.name!r} result set")
            extra = len(spec.points)
            for row in resume.rows:
                ordinal = self._ordinals.get(row.index)
                if ordinal is None:
                    ordinal, extra = extra, extra + 1
                self._rows.append(ResultRow(
                    ordinal=ordinal, index=row.index, status=row.status,
                    value=row.value, stage=row.stage, error=row.error))
        self._done = {row.index for row in self._rows}
        self._failures = sum(1 for row in self._rows if not row.ok)

    def carry(self, index, status, value=None, stage=None,
              error=None) -> None:
        """Carry a finished outcome over unless its point is done or
        unknown to the spec (the service's chunk-file salvage)."""
        if index in self._done or index not in self._ordinals:
            return
        self._done.add(index)
        self._rows.append(ResultRow(ordinal=self._ordinals[index],
                                   index=index, status=status, value=value,
                                   stage=stage, error=error))
        if status != "ok":
            self._failures += 1

    def lookup(self, cache) -> list:
        """Points still to measure, after serving ``cache`` hits.

        Hits become ``ok`` rows at once (progress fires for them when
        the campaign starts running); misses remember their content
        key so :meth:`merge` can store the measured payload.
        """
        pending = [point for point in self._spec.points
                   if point.index not in self._done]
        if cache is None:
            return pending
        self._cache = cache
        self._encode, decode = get_codec(self._spec.codec)
        still_pending = []
        for point in pending:
            key = experiment_point_key(self._spec, point.params)
            hit, payload = cache.get(key)
            if hit:
                value = decode(payload)
                self._rows.append(ResultRow(
                    ordinal=self._ordinals[point.index], index=point.index,
                    status="ok", value=value))
                self.hits.append((point.index, value))
            else:
                self._keys[point.index] = key
                still_pending.append(point)
        return still_pending

    def merge(self, index, status, value=None, stage=None, error=None,
              trace=None) -> None:
        """Record one freshly measured outcome as a row."""
        if trace is not None:
            self._traces[index] = trace
        self._rows.append(ResultRow(ordinal=self._ordinals[index],
                                   index=index, status=status, value=value,
                                   stage=stage, error=error))
        if status == "ok":
            key = self._keys.get(index)
            if key is not None:
                self._cache.put(key, self._encode(value))
            self._progress(index, value)
            return
        self._failures += 1
        spec = self._spec
        if (spec.max_failures is not None
                and self._failures > spec.max_failures):
            raise AnalysisError(
                f"{spec.name} aborted: {self._failures} sample failures "
                f"exceed max_failures={spec.max_failures}; last: "
                f"{index}: [{stage}] {error}")

    def _progress(self, index, value) -> None:
        if self._progress_fn is None:
            return
        try:
            self._progress_fn(index, value)
        except Exception as exc:
            self._progress_fn = None
            warnings.warn(
                f"{self._spec.name} progress callback raised "
                f"{type(exc).__name__}: {exc}; further calls "
                f"suppressed, campaign continues", RuntimeWarning,
                stacklevel=3)

    def run(self, dispatch, on_interrupt=None) -> None:
        """Report cache hits, then run ``dispatch()`` until done.

        SIGTERM (container/CI kill) takes the same partial-results path
        as Ctrl-C: both mark the campaign interrupted, after
        ``on_interrupt()`` has had its chance to salvage in-flight work.
        """
        with sigterm_interrupts():
            try:
                for index, value in self.hits:
                    self._progress(index, value)
                dispatch()
            except KeyboardInterrupt:
                self._interrupted = True
                if on_interrupt is not None:
                    on_interrupt()

    def finish(self, store=None, run_id: str | None = None) -> ResultSet:
        """Rows in canonical order as a :class:`ResultSet`, persisted
        to ``store`` when one is given."""
        spec = self._spec
        self._rows.sort(key=lambda row: row.ordinal)
        result = ResultSet(name=spec.name, codec=spec.codec,
                           metadata=dict(spec.metadata), rows=self._rows,
                           interrupted=self._interrupted)
        if self._trace_mode is not None:
            # Snapshots merge in canonical row order (never completion
            # order), so a pooled campaign aggregates exactly like a
            # serial one. Resumed rows carried over without traces are
            # skipped.
            result.trace = telemetry.aggregate_traces(
                [(row.index, self._traces.get(row.index))
                 for row in self._rows], self._trace_mode)
        if store is not None:
            store.write(result, spec=spec,
                        wall_s=time.perf_counter() - self._started,
                        run_id=run_id)
        return result


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
    trace_mode = (spec.trace if spec.trace is not None
                  else telemetry.campaign_trace_mode())
    campaign = _Campaign(spec, progress=progress, resume=resume,
                         trace_mode=trace_mode)
    pending = campaign.lookup(as_cache(cache) if spec.faults is None
                              else None)

    # One dispatch decision. A spec with a batch_measure runs SPMD
    # lanes (whole chunks through one batch_measure call, sharded over
    # the pool when workers > 1) unless
    # - it names the "serial" backend;
    # - it is traced, so traces aggregate exactly like a serial run;
    # - it leaves the backend implicit under an ambient collecting
    #   tracer (a profiler around the whole run), so that tracer counts
    #   the per-point kernel; a spec naming "batched" still runs lanes;
    # - it carries a fault plan: plans count firings in mutable
    #   in-process state and scope the ambient plan per point, both
    #   invisible across a pool boundary.
    # Fault plans and the "serial" backend also run in-process,
    # whatever ``workers`` says (spec.pool_workers; the CLI defaults
    # workers to every CPU).
    profiled = isinstance(telemetry.active_tracer(),
                          telemetry.CollectingTracer)
    batched = (spec.batch_measure is not None and trace_mode is None
               and spec.faults is None
               and (spec.backend == "batched"
                    or (spec.backend is None and not profiled)))
    workers = spec.pool_workers
    chunks = plan_chunks(pending, spec.batch_width if batched else 1,
                         workers)
    tasks = [(tuple(point.index for point in chunk),
              [point.params for point in chunk]) for chunk in chunks]
    context = (spec.measure, spec.batch_measure if batched else None,
               spec.stage, trace_mode, spec.solver, spec.faults)

    def dispatch() -> None:
        for outcomes, evicted, stats in parallel_map(
                _chunk_worker, tasks, workers=workers, context=context):
            add_solve_stats(*stats)
            if evicted is not None:
                _LOG.warning(
                    "%s: batch_measure failed for a %d-point chunk "
                    "(%s); chunk evicted to the per-point measure",
                    spec.name, len(outcomes), evicted)
            for outcome in outcomes:
                campaign.merge(*outcome)

    campaign.run(dispatch)
    if store is not None:
        from repro.runtime.experiment.store import ArtifactStore
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
    return campaign.finish(store, run_id)
