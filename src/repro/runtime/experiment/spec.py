"""Declarative campaign specifications.

Every campaign in this repository has the same shape: a *parameter
space* (Monte Carlo sample indices, a VDDI×VDDO grid, PVT corner pairs,
sizing knobs, temperatures) mapped through one *measurement function*
into a set of per-point results, with quarantine for points that fail,
seed-stable resume, and optional process-pool distribution. An
:class:`ExperimentSpec` captures that shape declaratively so one engine
(:func:`repro.runtime.experiment.engine.run_experiment`) can execute
every campaign, and the analysis drivers reduce to spec builders plus
result assemblers.

Design constraints inherited from :mod:`repro.runtime.parallel`:

* ``measure`` must be a **module-level function** (the process pool
  pickles it by reference) and must derive *everything* from its
  ``params`` argument — no shared state, no ambient randomness — so a
  pooled run is bitwise identical to a serial one.
* ``params`` and the measured payloads must be picklable.
* each point's ``index`` is its stable identity: resume skips indices
  that already have a result, and quarantine reports name them. The
  index must be hashable and JSON-representable (ints, strings, floats,
  or nested tuples of those) so it round-trips through an artifact
  store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from repro.errors import AnalysisError
from repro.runtime.telemetry import TRACE_MODES
from repro.spice.sparse import validate_solver


#: The execution backends a spec may name. ``serial`` runs points one
#: at a time in-process whatever ``workers`` says; ``batched`` hands
#: whole chunks of points to a vectorized ``batch_measure`` (SPMD
#: lanes; see :mod:`repro.spice.batch`). A spec naming neither
#: (``backend=None``) runs batched when it has a ``batch_measure`` and
#: one point per task otherwise, over a process pool when
#: ``workers > 1``.
BACKENDS = ("serial", "batched")


@dataclass(frozen=True)
class BatchPointFailure:
    """A per-lane failure returned (not raised) by a ``batch_measure``.

    A batched measurement evaluates many points per call; one lane's
    failure must not poison the rest, so instead of raising, the batch
    function puts one of these in that lane's slot. The engine
    quarantines the point exactly as if a serial measurement had raised
    ``error`` at ``stage``.
    """

    stage: str
    error: str


@dataclass(frozen=True)
class ExperimentPoint:
    """One point of a campaign's parameter space.

    Attributes:
        index: stable identity of the point (int for Monte Carlo,
            ``(i, j)`` for grids, ``(corner, temp)`` for PVT, a knob
            name for sensitivities). Used for resume, quarantine and
            artifact rows.
        params: the picklable argument tuple handed to the spec's
            ``measure`` function.
    """

    index: Hashable
    params: tuple


@dataclass
class ExperimentSpec:
    """A complete, executable description of one campaign.

    Attributes:
        name: human-readable campaign name; appears in progress-callback
            warnings, abort messages, and run ids.
        measure: module-level function ``measure(params) -> payload``.
            Exceptions it raises quarantine the point instead of
            aborting the campaign.
        points: the parameter space, in canonical (report) order.
        stage: label recorded on quarantined points (e.g.
            ``"characterize"``, ``"quick_delays"``).
        codec: name of the payload codec used when the result set is
            persisted (see :mod:`repro.runtime.experiment.resultset`).
        workers: process-pool width; 1 (the library default) runs
            serially in-process. The pool takes one point per task, or
            one lane group per task on the batched path.
        faults: optional deterministic fault plan; forces serial
            execution because plans count firings in mutable in-process
            state.
        max_failures: abort (AnalysisError) once this many points have
            been quarantined; None = never abort.
        seed: master seed recorded in the provenance manifest (None for
            deterministic campaigns).
        retry_policy: solver retry policy recorded in the provenance
            manifest; None means the default policy.
        metadata: JSON-serializable campaign description (kind,
            supplies, grid, ...) stored in the manifest and used by
            result assemblers.
        trace: per-point solver telemetry mode: ``"collect"`` records
            counters/histograms/timers, ``"profile"`` adds a cProfile
            per point; None (default) defers to the process-wide mode
            set by :func:`repro.runtime.telemetry.set_campaign_trace_mode`
            (the CLI ``--trace``/``--profile`` flags). Traces are
            aggregated into the result set's ``repro-trace-v1`` section.
        backend: execution backend, one of :data:`BACKENDS`; None
            (default) is ``"batched"`` when the spec has a
            ``batch_measure`` and one point per task otherwise, over a
            process pool when ``workers > 1``; ``"serial"`` stays
            in-process whatever ``workers`` says.
            ``"batched"`` requires ``batch_measure``; combined with
            ``workers > 1`` it runs *sharded-batched* — points are
            chunked into per-worker lane groups, each pool worker
            drives the SPMD backend on its shard, and chunk eviction /
            quarantine / resume behave exactly as in-process. Traced
            and fault-plan campaigns measure per point whatever the
            backend; so does the None default under an ambient
            collecting tracer.
        batch_measure: module-level function
            ``batch_measure(params_list) -> values`` evaluating many
            points in one vectorized call; one returned entry per
            params, a :class:`BatchPointFailure` in a slot quarantining
            that point. If the whole call raises, the engine falls back
            to per-point ``measure`` for that chunk — eviction to
            serial with a logged reason, never a lost chunk.
        batch_width: most points per ``batch_measure`` call (lane
            count); with ``workers > 1`` a campaign smaller than
            ``workers * batch_width`` splits evenly over the workers.
        solver: linear-solve kernel for every measurement in this
            campaign: "dense", "sparse" (pattern-reuse LU), or "auto"
            (by MNA size); None keeps the ambient default ("auto").
            An execution knob by design: it is excluded from solve-
            cache content keys and from provenance identity.
    """

    name: str
    measure: Callable
    points: Sequence[ExperimentPoint]
    stage: str = "measure"
    codec: str = "json"
    workers: int = 1
    faults: object | None = None
    max_failures: int | None = None
    seed: int | None = None
    retry_policy: object | None = None
    metadata: dict = field(default_factory=dict)
    trace: str | None = None
    backend: str | None = None
    batch_measure: Callable | None = None
    batch_width: int = 128
    solver: str | None = None

    @property
    def pool_workers(self) -> int:
        """Processes the engine spreads this campaign over:
        ``workers``, except 1 for the ``"serial"`` backend and for a
        fault plan (plans count firings in in-process state)."""
        return (1 if self.backend == "serial" or self.faults is not None
                else self.workers)

    def validate(self) -> None:
        if self.workers < 1:
            raise AnalysisError("workers must be >= 1")
        if self.backend is not None and self.backend not in BACKENDS:
            raise AnalysisError(
                f"experiment {self.name!r}: backend must be None or one "
                f"of {BACKENDS}, got {self.backend!r}")
        if self.backend == "batched":
            if self.batch_measure is None:
                raise AnalysisError(
                    f"experiment {self.name!r}: backend 'batched' "
                    f"requires a batch_measure function. The campaign "
                    f"driver must supply a module-level "
                    f"batch_measure(params_list) that evaluates whole "
                    f"lane groups (see repro.spice.batch); drivers "
                    f"without one can only run backend='serial' or "
                    f"None.")
        if self.pool_workers > 1 and "<locals>" in getattr(
                self.batch_measure, "__qualname__", ""):
            raise AnalysisError(
                f"experiment {self.name!r}: batch_measure must be a "
                f"module-level function to run sharded-batched "
                f"(workers > 1 ships it to pool workers by pickled "
                f"reference)")
        if self.batch_width < 1:
            raise AnalysisError("batch_width must be >= 1")
        if self.solver is not None:
            validate_solver(self.solver)
        if self.trace is not None and self.trace not in TRACE_MODES:
            raise AnalysisError(
                f"experiment {self.name!r}: trace must be None or one "
                f"of {TRACE_MODES}, got {self.trace!r}")
        if self.max_failures is not None and self.max_failures < 0:
            raise AnalysisError("max_failures must be >= 0 or None")
        indices = [p.index for p in self.points]
        if len(set(indices)) != len(indices):
            raise AnalysisError(
                f"experiment {self.name!r} has duplicate point indices")
        if self.workers > 1 and "<locals>" in getattr(
                self.measure, "__qualname__", ""):
            raise AnalysisError(
                "measure must be a module-level function to run in a "
                "process pool (it is pickled by reference)")
