"""Zero-cost-when-disabled tracing and metrics for the solver stack.

The paper's evidence is a pile of SPICE-style numbers; trusting them
means being able to *see* the solver that produced them. This module is
the observability substrate the solvers and the experiment engine emit
into:

* a :class:`Tracer` protocol with three primitive instruments —
  **counters** (``count``), **value histograms** (``observe``) and
  **phase timers** (``phase``) — plus per-point lifecycle hooks;
* :class:`NullTracer`, an activated-but-silent tracer whose emission
  methods are no-ops. The *default* state is cheaper still: the
  ambient tracer is ``None`` and every instrumentation site guards on
  ``tracer is not None``, so the disabled hot path costs one pointer
  compare per solve (bench-guarded at ≤2 % — see
  :func:`repro.analysis.bench.bench_tracer_overhead`);
* :class:`CollectingTracer`, the real recorder: allocation-light dicts
  of counters, :class:`Histogram` moment accumulators, and monotonic
  phase timers, snapshotting to a JSON-ready dict;
* :class:`ProfilingTracer`, a :class:`CollectingTracer` that wraps each
  activation in :mod:`cProfile` and embeds the hottest functions in its
  snapshot — opt-in per campaign point;
* the ``repro-trace-v1`` document: :func:`aggregate_traces` merges
  per-point snapshots (in canonical ordinal order, so a pooled campaign
  merges exactly like a serial one) into a manifest section, and
  :func:`render_trace` / :func:`trace_outliers` turn a stored document
  back into a convergence summary with outlier flagging for the
  ``repro trace`` CLI.

What the solvers emit (names are stable — the manifest schema documents
them):

======================  =====================================================
``dc.solves``            counter: DC retry-ladder solves
``dc.converged.<s>``     counter: ladder wins per strategy (newton/gmin/...)
``dc.failed``            counter: ladders exhausted without convergence
``dc.ladder_depth``      histogram: attempts per DC solve (1 = plain Newton)
``dc.wall_s``            histogram: wall time per DC solve
``newton.iterations``    histogram: Newton iterations per converged attempt
``newton.failures``      counter: non-converged Newton attempts
``newton.condition_log10``  histogram: log10 1-norm Jacobian condition
                         estimate at convergence (CollectingTracer opt-out
                         via ``condition_estimates=False``)
``tran.runs``            counter: transient runs
``tran.steps_accepted``  counter: accepted transient steps
``tran.steps_rejected_dv``  counter: accuracy (dv) rejections
``tran.newton_failures``    counter: per-step Newton failures
``tran.halvings``        counter: total step halvings
``tran.stalled``         counter: stalled (abandoned) runs
``tran.h_accepted``      histogram: accepted step sizes [s] (the
                         step-controller a.k.a. LTE histogram)
``tran.h_rejected``      histogram: rejected step sizes [s]
``assembly.base_hit``    counter: base-matrix cache hits
``assembly.base_miss``   counter: base-matrix cache rebuilds
``phase.dc``             timer: wall seconds inside DC ladders
``phase.transient``      timer: wall seconds inside transient marches
``phase.op``             timer: wall seconds inside OperatingPoint.run
``batch.*``              counters from the batched SPMD backend
                         (:mod:`repro.spice.batch`): ``batch.newton.
                         solves/iterations/lane_iterations/
                         lane_failures``, ``batch.dc.evicted`` (lanes
                         sent to the serial retry ladder), ``batch.
                         tran.lanes/super_steps/steps_accepted/
                         stalled``
======================  =====================================================

Activation is ambient and scoped, mirroring
:func:`repro.runtime.faults.inject`::

    with trace(CollectingTracer()) as tracer:
        Transient(ckt, 1e-9).run()
    print(tracer.snapshot())

Campaign tracing is requested either per-spec
(``ExperimentSpec.trace = "collect" | "profile"``) or process-wide via
:func:`set_campaign_trace_mode` (what the CLI ``--trace`` flag does);
the engine threads the mode into its worker tasks explicitly, so
process pools behave identically to serial runs.
"""

from __future__ import annotations

import math
import time as _time
from contextlib import contextmanager

#: Version tag for the trace manifest section; bump on format changes.
TRACE_SCHEMA = "repro-trace-v1"

#: Recognised campaign trace modes (None disables).
TRACE_MODES = ("collect", "profile")

#: Outlier rule used by :func:`trace_outliers`: a point is flagged when
#: a metric exceeds mean + this many standard deviations of the
#: campaign distribution (and the distribution actually varies).
OUTLIER_SIGMA = 3.0

_ACTIVE = None  # ambient tracer; None == tracing disabled (the default)
_CAMPAIGN_MODE = None  # process-wide campaign trace mode for the CLI


# ---------------------------------------------------------------------------
# Instruments


class Histogram:
    """Streaming moment accumulator: count/sum/min/max/sumsq.

    Deliberately not a binned histogram: moments merge exactly and
    deterministically across campaign points and worker processes
    (addition in a fixed order), which binned quantiles do not.
    """

    __slots__ = ("count", "total", "sumsq", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.sumsq = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.sumsq += value * value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        var = self.sumsq / self.count - self.mean ** 2
        return math.sqrt(var) if var > 0.0 else 0.0

    def to_json(self) -> dict:
        return {"count": self.count, "total": self.total,
                "sumsq": self.sumsq,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None}

    @classmethod
    def from_json(cls, payload: dict) -> "Histogram":
        h = cls()
        h.count = int(payload.get("count", 0))
        h.total = float(payload.get("total", 0.0))
        h.sumsq = float(payload.get("sumsq", 0.0))
        if h.count:
            h.min = float(payload["min"])
            h.max = float(payload["max"])
        return h

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        self.sumsq += other.sumsq
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)


# ---------------------------------------------------------------------------
# Tracers


class _NullPhase:
    """Reusable no-op context: cheaper than a generator context manager.

    ``Tracer.phase`` (and thus :class:`NullTracer`) returns one shared
    instance, so a disabled-but-activated tracer pays two attribute
    lookups per phase instead of a ``contextlib`` generator allocation
    — the difference between ~0.2 and ~2.4 µs per solve, which is what
    keeps the NullTracer inside the ≤2 % bench bound.
    """

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_PHASE = _NullPhase()


class Tracer:
    """Protocol for solver telemetry sinks.

    Subclasses override the three instruments. The base class documents
    the contract; it is usable directly only as a no-op.

    Attributes:
        condition_estimates: when False, the Newton solver skips the
            O(n^3) Jacobian condition estimate entirely.
    """

    condition_estimates = False

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""

    def observe(self, name: str, value: float) -> None:
        """Record one sample of the distribution ``name``."""

    def phase(self, name: str):
        """Context manager timing a phase into timer ``name`` [seconds].

        The base (and :class:`NullTracer`) implementation returns a
        shared no-op context object rather than a generator context
        manager; see :class:`_NullPhase`.
        """
        return _NULL_PHASE

    # -- lifecycle (driven by the ambient ``trace`` context manager) ------

    def start(self) -> None:
        """Called when the tracer becomes ambient."""

    def stop(self) -> None:
        """Called when the tracer stops being ambient."""

    def snapshot(self) -> dict:
        """JSON-ready dict of everything recorded so far."""
        return {}


class NullTracer(Tracer):
    """Activated tracer that records nothing.

    Exists to *bound the cost of the instrumentation itself*: with a
    NullTracer ambient every guard passes and every emission call is
    made, but nothing is computed or stored. ``pytest -m bench``
    (:func:`repro.analysis.bench.bench_tracer_overhead`) asserts this
    costs ≤2 % over the disabled (ambient ``None``) hot path.
    """


class CollectingTracer(Tracer):
    """Records counters, histograms, and phase timers in-process."""

    condition_estimates = True

    def __init__(self, condition_estimates: bool = True):
        self.condition_estimates = condition_estimates
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, Histogram] = {}
        self.timers: dict[str, float] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.add(value)

    @contextmanager
    def phase(self, name: str):
        started = _time.perf_counter()
        try:
            yield
        finally:
            elapsed = _time.perf_counter() - started
            self.timers[name] = self.timers.get(name, 0.0) + elapsed

    def snapshot(self) -> dict:
        return {
            "counters": dict(self.counters),
            "histograms": {name: hist.to_json()
                           for name, hist in self.histograms.items()},
            "timers": dict(self.timers),
        }


class ProfilingTracer(CollectingTracer):
    """CollectingTracer plus an opt-in cProfile per activation.

    The profile runs from :meth:`start` to :meth:`stop` (the engine
    activates a fresh tracer around each campaign point), and the
    snapshot embeds the ``top`` hottest functions by cumulative time as
    plain text — heavyweight by design, never on by default.
    """

    def __init__(self, top: int = 15, condition_estimates: bool = True):
        super().__init__(condition_estimates=condition_estimates)
        self.top = top
        self._profile = None
        self.profile_text: str | None = None

    def start(self) -> None:
        import cProfile
        self._profile = cProfile.Profile()
        self._profile.enable()

    def stop(self) -> None:
        if self._profile is None:
            return
        import io
        import pstats
        self._profile.disable()
        stream = io.StringIO()
        stats = pstats.Stats(self._profile, stream=stream)
        stats.sort_stats("cumulative").print_stats(self.top)
        self.profile_text = stream.getvalue()
        self._profile = None

    def snapshot(self) -> dict:
        snap = super().snapshot()
        if self.profile_text is not None:
            snap["profile"] = self.profile_text
        return snap


# ---------------------------------------------------------------------------
# Ambient activation


def active_tracer():
    """The ambient tracer, or None when tracing is disabled."""
    return _ACTIVE


@contextmanager
def trace(tracer: Tracer):
    """Activate ``tracer`` ambiently for a region of code.

    Nested activations shadow (and restore) the outer tracer, matching
    :func:`repro.runtime.faults.inject` semantics.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    tracer.start()
    try:
        yield tracer
    finally:
        tracer.stop()
        _ACTIVE = previous


def make_tracer(mode: str) -> CollectingTracer:
    """Tracer instance for a campaign trace mode."""
    if mode == "profile":
        return ProfilingTracer()
    if mode == "collect":
        return CollectingTracer()
    raise ValueError(f"unknown trace mode {mode!r}; "
                     f"expected one of {TRACE_MODES}")


def set_campaign_trace_mode(mode: str | None) -> None:
    """Process-wide campaign trace mode (what ``--trace`` sets).

    ``run_experiment`` consults this when the spec itself does not
    request tracing; the chosen mode is threaded *explicitly* into
    worker tasks, so pools behave identically to serial runs.
    """
    if mode is not None and mode not in TRACE_MODES:
        raise ValueError(f"unknown trace mode {mode!r}; "
                         f"expected one of {TRACE_MODES}")
    global _CAMPAIGN_MODE
    _CAMPAIGN_MODE = mode


def campaign_trace_mode() -> str | None:
    return _CAMPAIGN_MODE


# ---------------------------------------------------------------------------
# repro-trace-v1 documents


def _merge_snapshot(totals: dict, snapshot: dict) -> None:
    for name, value in snapshot.get("counters", {}).items():
        totals["counters"][name] = totals["counters"].get(name, 0) + value
    for name, payload in snapshot.get("histograms", {}).items():
        hist = totals["histograms"].get(name)
        if hist is None:
            hist = totals["histograms"][name] = Histogram()
        hist.merge(Histogram.from_json(payload))
    for name, value in snapshot.get("timers", {}).items():
        totals["timers"][name] = totals["timers"].get(name, 0.0) + value


def aggregate_traces(point_traces: list, mode: str) -> dict:
    """Build a ``repro-trace-v1`` document from per-point snapshots.

    Args:
        point_traces: ``(index, snapshot)`` pairs in canonical
            (ordinal) row order. Merging in that fixed order makes the
            aggregate independent of pool completion order.
        mode: the campaign trace mode that produced the snapshots.
    """
    totals: dict = {"counters": {}, "histograms": {}, "timers": {}}
    points = []
    for index, snapshot in point_traces:
        if snapshot is None:
            continue
        _merge_snapshot(totals, snapshot)
        points.append({"index": index, **snapshot})
    return {
        "schema": TRACE_SCHEMA,
        "mode": mode,
        "points": points,
        "totals": {
            "counters": totals["counters"],
            "histograms": {name: hist.to_json()
                           for name, hist in totals["histograms"].items()},
            "timers": totals["timers"],
        },
    }


#: Per-point scalars examined for outliers: (label, extractor).
def _point_metric(point: dict, histogram: str, field: str = "total"):
    payload = point.get("histograms", {}).get(histogram)
    if not payload or not payload.get("count"):
        return None
    if field == "max":
        return float(payload["max"])
    return float(payload[field])


_OUTLIER_METRICS = (
    ("newton iterations", lambda p: _point_metric(p, "newton.iterations")),
    ("worst attempt iterations",
     lambda p: _point_metric(p, "newton.iterations", "max")),
    ("dc ladder depth", lambda p: _point_metric(p, "dc.ladder_depth", "max")),
    ("newton failures",
     lambda p: float(p.get("counters", {}).get("newton.failures", 0))
     if p.get("counters") else None),
    ("dc wall seconds", lambda p: _point_metric(p, "dc.wall_s")),
    ("transient halvings",
     lambda p: float(p.get("counters", {}).get("tran.halvings", 0))
     if p.get("counters") else None),
)


def trace_outliers(document: dict, sigma: float = OUTLIER_SIGMA) -> list[dict]:
    """Flag campaign points whose convergence behaviour is anomalous.

    A point is an outlier on a metric when its value exceeds
    ``mean + sigma * std`` over all points (requires >= 4 points and a
    non-degenerate distribution). Returns records sorted by how far
    out each point is: ``{"index", "metric", "value", "mean", "std"}``.
    """
    points = document.get("points", [])
    if len(points) < 4:
        return []
    flagged = []
    for label, extract in _OUTLIER_METRICS:
        values = [(p.get("index"), extract(p)) for p in points]
        values = [(i, v) for i, v in values if v is not None]
        if len(values) < 4:
            continue
        data = [v for _, v in values]
        mean = sum(data) / len(data)
        var = sum((v - mean) ** 2 for v in data) / len(data)
        std = math.sqrt(var) if var > 0.0 else 0.0
        if std == 0.0:
            continue
        threshold = mean + sigma * std
        for index, value in values:
            if value > threshold:
                flagged.append({"index": index, "metric": label,
                                "value": value, "mean": mean, "std": std,
                                "sigmas": (value - mean) / std})
    flagged.sort(key=lambda r: -r["sigmas"])
    return flagged


def _format_hist(name: str, payload: dict) -> str:
    hist = Histogram.from_json(payload)
    return (f"    {name:<28s} n={hist.count:<7d} mean={hist.mean:.4g}  "
            f"min={hist.min:.4g}  max={hist.max:.4g}  std={hist.std:.4g}")


def render_trace(document: dict, limit: int = 10) -> str:
    """Human-readable convergence summary of a stored trace document."""
    schema = document.get("schema")
    lines = [f"trace ({schema}, mode={document.get('mode')}): "
             f"{len(document.get('points', []))} points"]
    if schema != TRACE_SCHEMA:
        lines.append(f"  WARNING: unknown schema (this build reads "
                     f"{TRACE_SCHEMA})")
    totals = document.get("totals", {})
    counters = totals.get("counters", {})
    if counters:
        lines.append("  counters:")
        for name in sorted(counters):
            lines.append(f"    {name:<28s} {counters[name]}")
    histograms = totals.get("histograms", {})
    if histograms:
        lines.append("  histograms:")
        for name in sorted(histograms):
            lines.append(_format_hist(name, histograms[name]))
    timers = totals.get("timers", {})
    if timers:
        lines.append("  phase wall time [s]:")
        for name in sorted(timers):
            lines.append(f"    {name:<28s} {timers[name]:.4f}")
    outliers = trace_outliers(document)
    if outliers:
        lines.append(f"  outliers (> mean + {OUTLIER_SIGMA:g} sigma):")
        for record in outliers[:limit]:
            lines.append(
                f"    point {record['index']!r}: {record['metric']} = "
                f"{record['value']:.4g} ({record['sigmas']:.1f} sigma "
                f"above mean {record['mean']:.4g})")
        if len(outliers) > limit:
            lines.append(f"    (+{len(outliers) - limit} more)")
    elif len(document.get("points", [])) >= 4:
        lines.append("  no convergence outliers")
    profiled = [p for p in document.get("points", []) if "profile" in p]
    if profiled:
        lines.append(f"  cProfile captured for {len(profiled)} points "
                     f"(see manifest for full listings)")
    return "\n".join(lines)
