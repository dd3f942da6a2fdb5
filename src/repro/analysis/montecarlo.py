"""Monte Carlo characterization engine (paper Tables 3 and 4).

The paper runs 1000 Monte Carlo samples per direction, varying every
device's W, L and Vt independently (sigmas in
:class:`~repro.pdk.variation.VariationSpec`) at a given temperature,
and reports mean and standard deviation of all six metrics plus the
observation that every sample converted correctly.

:func:`run_monte_carlo` reproduces that flow. Each sample builds a
fresh testbench through a :class:`~repro.pdk.variation.VariedPdk`
seeded from a :class:`numpy.random.SeedSequence` child, so results are
reproducible and samples are independent. The same master seed gives
the *same process instances* to each shifter kind (paired comparison),
because each kind re-derives per-sample seeds from the sample index
alone.

The driver is a thin spec builder over the unified experiment engine
(:mod:`repro.runtime.experiment`): :func:`monte_carlo_spec` describes
the campaign declaratively, :func:`run_experiment` executes it with
workers / quarantine / fault injection / Ctrl-C partials / seed-stable
resume, and :func:`result_from_resultset` assembles the classic
:class:`MonteCarloResult` from the typed rows. Pass ``store=`` to
persist the run (rows + provenance manifest) and ``resume=`` a
previous result set, in memory or reloaded from the artifact store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.characterize import (
    StimulusPlan, characterize, characterize_batch,
)
from repro.core.metrics import MetricStatistics, ShifterMetrics, aggregate
from repro.errors import AnalysisError
from repro.pdk.variation import VariationSpec, VariedPdk
from repro.runtime.campaign import SampleFailure, failure_summary
from repro.runtime.experiment import (
    ExperimentPoint, ExperimentSpec, ResultSet, run_experiment,
)
from repro.runtime.faults import FaultPlan

#: Experiment name shared by specs, result sets, and stored manifests.
EXPERIMENT_NAME = "Monte Carlo"


@dataclass
class MonteCarloConfig:
    """Settings for a Monte Carlo characterization run."""

    runs: int = 200
    seed: int = 20080310  # DATE 2008 week, for flavor
    temperature_c: float = 27.0
    spec: VariationSpec = field(default_factory=VariationSpec)
    plan: StimulusPlan = field(default_factory=StimulusPlan)
    #: Deterministic fault injection for resilience testing.
    faults: FaultPlan | None = None
    #: Abort (AnalysisError) once this many samples have been
    #: quarantined; None = never abort, quarantine everything.
    max_failures: int | None = None
    #: Process-pool width; 1 (the default) runs serially in-process.
    #: Parallel results are bitwise identical to serial ones because
    #: per-sample seeds derive from the sample index alone. Campaigns
    #: with a fault plan are forced serial (plans count firings in
    #: mutable in-process state).
    workers: int = 1
    #: Execution backend: None and "batched" stack samples into SPMD
    #: lanes (see :mod:`repro.spice.batch`), and with workers > 1 run
    #: sharded-batched (one lane group per pool task); "serial"
    #: characterizes one sample at a time in-process. Traced and
    #: fault-plan campaigns measure per sample whatever the backend.
    backend: str | None = None
    #: Most samples per batched lane group (ignored off the batched
    #: path; smaller when the runs split evenly over the workers).
    #: 128 keeps LAPACK calls amortized over enough lanes without
    #: letting lane divergence strand the stack (measured on a
    #: 100-sample sstvs Monte Carlo: 128 beats 32 by ~2.3x).
    batch_width: int = 128
    #: Linear-solve kernel: "dense", "sparse" (pattern-reuse LU), or
    #: "auto" (by MNA size); None keeps the ambient default ("auto").
    #: An execution knob: excluded from solve-cache keys, results are
    #: kernel-independent up to the tested ULP bound.
    solver: str | None = None
    #: Registered PDK node every sample's VariedPdk binds to. Part of
    #: the content identity (rides in each point's params and the spec
    #: metadata), so two nodes never share cache entries.
    pdk_node: str = "ptm90"

    def validate(self) -> None:
        if self.runs < 1:
            raise AnalysisError("Monte Carlo needs at least one run")
        if self.max_failures is not None and self.max_failures < 0:
            raise AnalysisError("max_failures must be >= 0 or None")
        if self.workers < 1:
            raise AnalysisError("workers must be >= 1")
        if self.batch_width < 1:
            raise AnalysisError("batch_width must be >= 1")
        from repro.pdk.registry import get_node
        get_node(self.pdk_node)  # unknown nodes fail with the listing


@dataclass
class MonteCarloResult:
    """All samples plus aggregate statistics and failure accounting."""

    kind: str
    vddi: float
    vddo: float
    samples: list[ShifterMetrics]
    #: Statistics over the *successful* samples (None if all failed).
    statistics: MetricStatistics | None
    #: Sample indices of the successful samples, aligned with
    #: ``samples``.
    completed_indices: list[int] = field(default_factory=list)
    #: Per-sample failures captured instead of raised.
    failures: list[SampleFailure] = field(default_factory=list)
    #: True when the campaign was interrupted (Ctrl-C) mid-run.
    interrupted: bool = False
    #: Artifact-store run id, when the campaign was persisted.
    run_id: str | None = None

    @property
    def quarantined(self) -> list[int]:
        """Sample indices that failed, in campaign order."""
        return [f.index for f in self.failures]

    @property
    def functional_yield(self) -> float:
        """Fraction of *attempted* samples that converted correctly.

        Quarantined samples count as non-functional, so an injected or
        genuine solver escape degrades the yield rather than vanishing.
        """
        total = len(self.samples) + len(self.failures)
        if total == 0:
            return 0.0
        good = sum(1 for s in self.samples if s.functional)
        return good / total

    def failure_summary(self, limit: int = 10) -> str:
        return failure_summary(len(self.samples) + len(self.failures),
                               self.failures, self.interrupted, limit)


def _measure(params: tuple) -> ShifterMetrics:
    """Run one Monte Carlo sample; shared by serial and pool paths.

    Module-level so the process pool can pickle it by reference.
    Derives everything (including randomness) from the params tuple, so
    a pool worker computes bit-for-bit what the serial loop would.
    """
    (index, seed, temperature_c, spec, plan, kind, vddi, vddo,
     sizing, node) = params
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    pdk = VariedPdk(rng, spec, temperature_c=temperature_c, node=node)
    return characterize(pdk, kind, vddi, vddo, plan=plan, sizing=sizing)


def _batch_measure(params_list: list) -> list:
    """Run many Monte Carlo samples as SPMD lanes in one call.

    Each lane's VariedPdk derives from the same per-index seed chain as
    :func:`_measure`, and :func:`characterize_batch` extracts metrics
    from per-lane bitwise-identical waveforms — so a batched sample is
    the same ShifterMetrics the serial path returns, bit for bit.
    """
    lanes = []
    for params in params_list:
        (index, seed, temperature_c, spec, plan, kind, vddi, vddo,
         sizing, node) = params
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        pdk = VariedPdk(rng, spec, temperature_c=temperature_c, node=node)
        lanes.append((pdk, kind, vddi, vddo, plan, 1e-15, sizing, 1.0))
    return characterize_batch(lanes)


def monte_carlo_spec(kind: str, vddi: float, vddo: float,
                     config: MonteCarloConfig | None = None,
                     sizing=None) -> ExperimentSpec:
    """Describe a Monte Carlo campaign declaratively."""
    config = config or MonteCarloConfig()
    config.validate()
    points = [
        ExperimentPoint(index, (index, config.seed, config.temperature_c,
                                config.spec, config.plan, kind, vddi,
                                vddo, sizing, config.pdk_node))
        for index in range(config.runs)
    ]
    return ExperimentSpec(
        name=EXPERIMENT_NAME, measure=_measure, points=points,
        stage="characterize", codec="metrics",
        workers=config.workers,
        faults=config.faults, max_failures=config.max_failures,
        seed=config.seed, backend=config.backend,
        batch_measure=_batch_measure, batch_width=config.batch_width,
        solver=config.solver,
        metadata={"experiment": "mc", "kind": kind, "vddi": vddi,
                  "vddo": vddo, "runs": config.runs, "seed": config.seed,
                  "temperature_c": config.temperature_c,
                  "pdk_node": config.pdk_node})


def result_from_resultset(resultset: ResultSet,
                          kind: str | None = None,
                          vddi: float | None = None,
                          vddo: float | None = None) -> MonteCarloResult:
    """Assemble the classic result type from typed engine rows."""
    meta = resultset.metadata
    ok = resultset.ok_rows()
    samples = [row.value for row in ok]
    return MonteCarloResult(
        kind=kind if kind is not None else meta.get("kind", "?"),
        vddi=vddi if vddi is not None else meta.get("vddi", float("nan")),
        vddo=vddo if vddo is not None else meta.get("vddo", float("nan")),
        samples=samples,
        statistics=aggregate(samples) if samples else None,
        completed_indices=[row.index for row in ok],
        failures=resultset.sample_failures(),
        interrupted=resultset.interrupted,
        run_id=resultset.run_id)


def run_monte_carlo(kind: str, vddi: float, vddo: float,
                    config: MonteCarloConfig | None = None,
                    sizing=None,
                    progress=None,
                    resume: ResultSet | None = None) -> MonteCarloResult:
    """Characterize ``kind`` over ``config.runs`` process samples.

    Args:
        progress: optional callable ``(index, metrics)`` invoked after
            each sample (used by benches for live output). Exceptions
            it raises are isolated — warned once and suppressed — so an
            observability hook can never take down a campaign.
        resume: a previous (partial) :class:`ResultSet` — in memory
            or reloaded from the artifact store — for the same
            kind/supplies/config; its completed and quarantined
            samples are carried over and only the remaining indices
            are run. Seed-stable because per-sample seeds derive from
            the sample index.

    Returns a partial result (``interrupted=True``) instead of raising
    on KeyboardInterrupt; per-sample errors are quarantined into
    ``failures`` rather than raised. To persist or cache the campaign,
    run :func:`monte_carlo_spec` through :func:`run_experiment` and
    assemble with :func:`result_from_resultset`.
    """
    spec = monte_carlo_spec(kind, vddi, vddo, config, sizing=sizing)
    resultset = run_experiment(spec, progress=progress, resume=resume)
    return result_from_resultset(resultset, kind=kind, vddi=vddi,
                                 vddo=vddo)
