"""Resilient solver runtime: retry policies, diagnostics, fault injection.

The paper's evidence is built from campaigns — 1000-sample Monte Carlo
tables and full VDDI×VDDO sweeps — where a single pathological sample
must degrade the result, not destroy it. This package holds the pieces
that make every solve survivable and observable:

* :class:`RetryPolicy` — configurable escalation schedule (gmin ladder,
  source-stepping ramp, timestep-halving budget, wall-clock and
  iteration budgets) consumed by :func:`repro.spice.newton.solve_dc`
  and :class:`repro.spice.transient.Transient`;
* :class:`SolveReport` / :class:`TransientReport` — structured
  per-solve diagnostics recording every attempt, how far it got, and
  which fallback finally converged;
* :class:`FaultPlan` — deterministic fault injection (singular
  Jacobians, NaN residuals, iteration exhaustion, timestep stalls,
  whole-sample failures) so the fallback ladder is actually testable;
* :class:`SampleFailure` — one quarantined campaign point, recorded
  by the analysis drivers instead of raising;
* :func:`parallel_map` — seed-stable process-pool execution of
  campaign samples, one task per submission with completion-order
  delivery, identical to serial execution at ``workers = 1``;
* :mod:`repro.runtime.experiment` — the unified experiment engine:
  declarative :class:`ExperimentSpec` campaigns executed by
  :func:`run_experiment` into typed :class:`ResultSet` rows, persisted
  with provenance through :class:`ArtifactStore`;
* :mod:`repro.runtime.telemetry` — zero-cost-when-disabled tracing:
  ambient :class:`Tracer` activation via :func:`trace`, per-solve
  counters/histograms/phase timers emitted by the spice layer, and
  ``repro-trace-v1`` campaign aggregation rendered by ``repro trace``;
* :mod:`repro.runtime.cache` — crash-safe content-addressed solve
  cache (:class:`SolveCache`): atomic commits, per-entry checksums
  with quarantine-on-corruption, pid+start-time stale-lock reclaim,
  read-only degraded mode on I/O errors;
* :mod:`repro.runtime.service` — supervised campaign job service
  (:class:`CampaignService`): write-ahead journal, worker
  heartbeat/watchdog, crash requeue with capped backoff, SIGTERM-clean
  resumable shutdown — crashed-and-resumed runs are bitwise identical
  to uninterrupted ones;
* :func:`sigterm_interrupts` — SIGTERM↔Ctrl-C parity for campaigns.

This package deliberately depends only on :mod:`repro.errors` (plus
the standard library) at import time, so the solver layers can import
it freely; the experiment store reaches up to :mod:`repro.pdk` and
:mod:`repro.core` only lazily, inside functions.
"""

from repro.runtime.cache import CacheStats, SolveCache, cache_key
from repro.runtime.campaign import SampleFailure
from repro.runtime.experiment import (
    ArtifactStore, ExperimentPoint, ExperimentSpec, ResultRow, ResultSet,
    register_codec, run_experiment,
)
from repro.runtime.faults import (
    FAULT_KINDS, FaultPlan, FaultSpec, SOLVE_FAULT_KINDS, active_plan,
    inject,
)
from repro.runtime.parallel import parallel_map
from repro.runtime.policy import (
    DEFAULT_GMIN_LADDER, DEFAULT_SOURCE_RAMP, RetryPolicy,
)
from repro.runtime.report import AttemptRecord, SolveReport, TransientReport
from repro.runtime.service import (
    CampaignService, ServiceConfig, ServiceStats,
)
from repro.runtime.signals import sigterm_interrupts
from repro.runtime.telemetry import (
    TRACE_MODES, TRACE_SCHEMA, CollectingTracer, Histogram, NullTracer,
    ProfilingTracer, Tracer, active_tracer, aggregate_traces,
    campaign_trace_mode, make_tracer, render_trace,
    set_campaign_trace_mode, trace, trace_outliers,
)

__all__ = [
    "ArtifactStore",
    "AttemptRecord",
    "CacheStats",
    "CampaignService",
    "ServiceConfig",
    "ServiceStats",
    "SolveCache",
    "cache_key",
    "sigterm_interrupts",
    "ExperimentPoint",
    "ExperimentSpec",
    "ResultRow",
    "ResultSet",
    "register_codec",
    "run_experiment",
    "DEFAULT_GMIN_LADDER",
    "DEFAULT_SOURCE_RAMP",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "SOLVE_FAULT_KINDS",
    "SampleFailure",
    "SolveReport",
    "TransientReport",
    "TRACE_MODES",
    "TRACE_SCHEMA",
    "CollectingTracer",
    "Histogram",
    "NullTracer",
    "ProfilingTracer",
    "Tracer",
    "active_plan",
    "active_tracer",
    "aggregate_traces",
    "campaign_trace_mode",
    "inject",
    "make_tracer",
    "parallel_map",
    "render_trace",
    "set_campaign_trace_mode",
    "trace",
    "trace_outliers",
]
