"""Supervised campaign service: durable jobs over watchdogged workers.

``run_experiment`` executes a campaign over a process pool with no
crash recovery; this module supervises the same campaign as a durable
job. It reuses the engine's bookkeeping unchanged — resume carry-over,
cache lookup and store, quarantine and ``max_failures``, progress
isolation, the SIGTERM scope and persistence all come from
:mod:`repro.runtime.experiment.engine` — and adds only the
supervision: chunk dispatch, the journal, the watchdog, backoff and
salvage. A :class:`CampaignService` turns an
:class:`~repro.runtime.experiment.spec.ExperimentSpec` into a
**durable job**: points are split into chunks, each chunk runs in its
own worker process, and every state transition is appended to a
write-ahead journal before it takes effect, so a service killed at any
instant can be restarted and finish the same run.

Failure machinery, in the order it engages:

* **Per-point result streaming** — a worker appends one fsynced JSON
  line per completed point to its chunk file. The file doubles as the
  worker's heartbeat (its mtime advances with every point), and every
  line written survives any later crash of that worker.
* **Watchdog** — a worker whose process died *or* whose heartbeat went
  stale (hung solve, livelock) is killed and its chunk requeued. The
  completed prefix of its chunk file is **salvaged**, so a crash only
  recomputes the points that were genuinely lost.
* **Capped exponential backoff** — a requeued chunk waits
  ``backoff_base_s * 2^(attempt-1)`` (capped) before redispatch; after
  ``max_attempts`` the missing points are quarantined as ``err`` rows
  rather than retried forever.
* **SIGTERM-clean shutdown** — SIGTERM and Ctrl-C both stop dispatch,
  terminate workers, salvage their partial chunks, and persist a
  resumable manifest with ``interrupted=True``.
* **Crash-equals-resume invariant** — workers derive every payload
  from point params alone and encode it through the spec's codec
  (bitwise float round-trip), and rows merge in canonical ordinal
  order; a crashed-and-resumed run is therefore bitwise identical to
  an uninterrupted one. The chaos suite (``pytest -m chaos``) asserts
  exactly that under injected kills, hangs, torn writes, stale locks
  and journal ENOSPC.

The journal (``<run>/service/journal.jsonl``) is append-only and
tolerant on both ends: a truncated tail or a corrupt interior line is
skipped on replay, and an append that fails (disk full — injectable as
the ``journal_disk_full`` fault) degrades journaling with one warning
instead of failing the campaign: durability is best-effort, results
are not.

Chaos injection (ambient :class:`~repro.runtime.faults.FaultPlan`):
``worker_crash`` with strategy ``"kill"`` (default), ``"hang"``, or
``"torn"`` — consulted *parent-side* at dispatch (so a requeued chunk
does not re-crash forever) and executed by the worker mid-chunk.
"""

from __future__ import annotations

import errno
import json
import os
import time
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from repro.errors import AnalysisError
from repro.runtime import telemetry
from repro.runtime.cache import as_cache
from repro.runtime.experiment.engine import _Campaign
from repro.runtime.experiment.resultset import (
    ResultSet, _decode_index, get_codec,
)
from repro.runtime.experiment.store import ArtifactStore
from repro.runtime.faults import active_plan

#: Version tag for journal records; bump when fields change meaning.
JOURNAL_SCHEMA = "repro-journal-v1"

JOURNAL_NAME = "journal.jsonl"
SERVICE_DIR = "service"
CHUNKS_DIR = "chunks"

#: Crash modes a ``worker_crash`` fault can select via its ``strategy``
#: field (None / "kill" both mean kill).
CRASH_MODES = ("kill", "hang", "torn")


@dataclass
class ServiceConfig:
    """Supervision knobs for one :class:`CampaignService`."""

    #: Points per worker chunk.
    chunk_size: int = 4
    #: Concurrent worker processes.
    workers: int = 2
    #: Heartbeat staleness after which a live worker is presumed hung
    #: and killed (its chunk file's mtime is the heartbeat).
    heartbeat_timeout_s: float = 30.0
    #: Supervisor poll interval.
    poll_interval_s: float = 0.02
    #: Dispatch attempts per chunk before its remaining points are
    #: quarantined.
    max_attempts: int = 3
    #: First requeue delay; doubles per attempt.
    backoff_base_s: float = 0.25
    #: Requeue delay ceiling.
    backoff_cap_s: float = 5.0

    def validate(self) -> None:
        if self.chunk_size < 1:
            raise AnalysisError("service chunk_size must be >= 1")
        if self.workers < 1:
            raise AnalysisError("service workers must be >= 1")
        if self.max_attempts < 1:
            raise AnalysisError("service max_attempts must be >= 1")
        if self.heartbeat_timeout_s <= 0:
            raise AnalysisError("heartbeat_timeout_s must be > 0")


@dataclass
class ServiceStats:
    """Supervision counters for one job run."""

    chunks_dispatched: int = 0
    chunks_completed: int = 0
    crashes: int = 0
    watchdog_kills: int = 0
    requeues: int = 0
    salvaged_rows: int = 0
    quarantined: int = 0
    cache_hits: int = 0

    def to_json(self) -> dict:
        from dataclasses import fields
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# Write-ahead journal


class JournalWriter:
    """Append-only fsynced JSONL journal that degrades, never fails.

    Every append consults the ambient fault plan for the
    ``journal_disk_full`` chaos point; a real or injected ``OSError``
    flips the journal into a degraded mode (one warning, further
    appends dropped) — the campaign's correctness never depends on the
    journal, only its restartability does.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.degraded = False
        self.records_written = 0

    def append(self, record: dict) -> None:
        if self.degraded:
            return
        record = {"schema": JOURNAL_SCHEMA,
                  "utc": datetime.now(timezone.utc).isoformat(),
                  **record}
        try:
            plan = active_plan()
            if plan is not None and plan.fires("journal_disk_full"):
                raise OSError(errno.ENOSPC, "injected: no space left "
                                            "on device")
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            self.records_written += 1
        except OSError as exc:
            self.degraded = True
            warnings.warn(
                f"campaign journal {self.path} degraded "
                f"({type(exc).__name__}: {exc}); the run continues "
                f"without journal durability", RuntimeWarning,
                stacklevel=2)


def replay_journal(path: str | Path) -> list[dict]:
    """Load journal records, skipping torn or corrupt lines.

    Damage-tolerant on purpose: the journal is written with one fsynced
    line per transition, so truncation can only tear the final line,
    and a bit-flipped interior line is dropped rather than trusted.
    """
    records = []
    path = Path(path)
    if not path.is_file():
        return records
    with open(path, errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


# ---------------------------------------------------------------------------
# Chunk workers


def _chunk_worker(tasks, out_path: str, codec: str, crash) -> None:
    """Measure a chunk of points, streaming one fsynced line per point.

    Runs in a child process. Per-point failures are encoded as ``err``
    records (quarantine must survive the process boundary). ``crash``
    is a chaos directive computed parent-side: ``None`` or
    ``(mode, after_points)`` with mode in :data:`CRASH_MODES`.
    """
    encode, _ = get_codec(codec)
    crash_mode, crash_after = crash if crash is not None else (None, None)
    with open(out_path, "a") as handle:
        for done, (measure, stage, index, params) in enumerate(tasks):
            if crash_mode is not None and done == crash_after:
                if crash_mode == "kill":
                    os._exit(137)
                if crash_mode == "hang":
                    # Stop heartbeating without exiting: only the
                    # supervisor's watchdog can reclaim this chunk.
                    time.sleep(3600.0)
                    os._exit(137)  # pragma: no cover - watchdog kills us
                if crash_mode == "torn":
                    # Die mid-write, leaving a torn record the salvager
                    # must reject.
                    handle.write('{"ordinal": 999999, "index": 999')
                    handle.flush()
                    os.fsync(handle.fileno())
                    os._exit(137)
            try:
                value = measure(params)
                record = {"index": index, "status": "ok",
                          "value": encode(value)}
            except Exception as exc:
                record = {"index": index, "status": "err", "stage": stage,
                          "error": f"{type(exc).__name__}: {exc}"}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())


def _load_chunk_rows(path: Path, decode) -> dict:
    """Valid per-point records from a (possibly torn) chunk file.

    Maps each index to ``(status, value, stage, error)``, the outcome
    form the engine's campaign bookkeeping carries and merges.
    """
    rows: dict = {}
    if not path.is_file():
        return rows
    with open(path, errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                index = _decode_index(record["index"])
                status = record["status"]
                if status == "ok":
                    rows[index] = ("ok", decode(record["value"]), None,
                                   None)
                elif status == "err":
                    rows[index] = ("err", None, record.get("stage"),
                                   record.get("error"))
            except Exception:
                continue  # torn or corrupt line: salvage the rest
    return rows


# ---------------------------------------------------------------------------
# The service


@dataclass
class _Chunk:
    no: int
    points: list
    attempt: int = 0
    ready_at: float = 0.0


@dataclass
class _Active:
    chunk: _Chunk
    process: object
    out_path: Path
    started: float
    crash: tuple | None = None


class CampaignService:
    """Run experiment specs as supervised, durable, resumable jobs.

    Args:
        store: :class:`ArtifactStore` (or root path) that receives the
            run's rows + manifest and hosts the job's journal and chunk
            files (``<run>/service/``).
        cache: optional :class:`~repro.runtime.cache.SolveCache` (or
            root path) consulted before dispatch and filled from worker
            results — shared, by content key, with ``run_experiment``.
        config: supervision knobs (:class:`ServiceConfig`).
    """

    def __init__(self, store, cache=None,
                 config: ServiceConfig | None = None):
        self.store = (store if isinstance(store, ArtifactStore)
                      else ArtifactStore(store))
        self.cache = as_cache(cache)
        self.config = config or ServiceConfig()
        self.config.validate()
        self.stats = ServiceStats()

    # -- paths -------------------------------------------------------------

    def service_dir(self, run_id: str) -> Path:
        return self.store.path(run_id) / SERVICE_DIR

    def journal_path(self, run_id: str) -> Path:
        return self.service_dir(run_id) / JOURNAL_NAME

    def _chunk_path(self, run_id: str, chunk: _Chunk) -> Path:
        return (self.service_dir(run_id) / CHUNKS_DIR
                / f"chunk-{chunk.no:04d}-a{chunk.attempt}.jsonl")

    # -- telemetry ---------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        tracer = telemetry.active_tracer()
        if tracer is not None:
            tracer.count(f"service.{name}", n)

    # -- running -----------------------------------------------------------

    def run(self, spec, *, run_id: str | None = None, resume=None,
            progress=None) -> ResultSet:
        """Execute ``spec`` as a supervised job; returns its rows.

        Args:
            run_id: reuse an existing run id — required to *resume* a
                crashed or interrupted job in place (its journal, chunk
                files and stored rows are all salvaged).
            resume: a previous (partial) :class:`ResultSet`, exactly as
                for ``run_experiment``.
            progress: optional ``(index, value)`` callback, exceptions
                isolated.

        Returns a partial result (``interrupted=True``) on SIGTERM or
        Ctrl-C instead of raising. The returned rows are bitwise
        identical to ``run_experiment(spec)`` — crashes, retries and
        resumes included.
        """
        spec.validate()
        if spec.faults is not None:
            raise AnalysisError(
                "fault-injection campaigns must run through "
                "run_experiment (plans count firings in-process); the "
                "service's own chaos points are driven by the ambient "
                "plan instead")
        campaign = _Campaign(spec, progress=progress, resume=resume)
        run_id = run_id or self.store._new_run_id(spec.name)
        journal = JournalWriter(self.journal_path(run_id))
        _, decode = get_codec(spec.codec)

        # Salvage rows a previous (crashed) service run already paid
        # for: every valid line in every chunk file counts.
        salvaged = self._salvage(run_id, decode)
        for index, outcome in salvaged.items():
            campaign.carry(index, *outcome)
        if salvaged:
            self.stats.salvaged_rows += len(salvaged)
            self._count("salvaged_rows", len(salvaged))
            journal.append({"t": "salvaged", "rows": len(salvaged)})

        pending = campaign.lookup(self.cache)
        self.stats.cache_hits += len(campaign.hits)

        journal.append({"t": "job", "run_id": run_id, "name": spec.name,
                        "points": len(spec.points),
                        "pending": len(pending),
                        "chunk_size": self.config.chunk_size,
                        "workers": self.config.workers})

        queue = [
            _Chunk(no=n, points=pending[i:i + self.config.chunk_size])
            for n, i in enumerate(
                range(0, len(pending), self.config.chunk_size))
        ]
        active: list[_Active] = []

        def supervise() -> None:
            while queue or active:
                self._dispatch(queue, active, spec, run_id, journal)
                self._reap(queue, active, journal, decode, campaign.merge)
                if queue or active:
                    time.sleep(self.config.poll_interval_s)

        campaign.run(supervise, on_interrupt=lambda: self._shutdown(
            active, journal, decode, campaign.merge))
        result = campaign.finish(self.store, run_id)
        journal.append({"t": "interrupted" if result.interrupted
                        else "finished",
                        "counts": result.counts,
                        "stats": self.stats.to_json()})
        return result

    # -- supervision internals ---------------------------------------------

    def _dispatch(self, queue, active, spec, run_id, journal) -> None:
        now = time.monotonic()
        while queue and len(active) < self.config.workers:
            ready = [c for c in queue if c.ready_at <= now]
            if not ready:
                return
            chunk = ready[0]
            queue.remove(chunk)
            chunk.attempt += 1
            crash = self._crash_directive(chunk)
            out_path = self._chunk_path(run_id, chunk)
            out_path.parent.mkdir(parents=True, exist_ok=True)
            tasks = [(spec.measure, spec.stage, point.index, point.params)
                     for point in chunk.points]
            process = _spawn(_chunk_worker,
                             (tasks, str(out_path), spec.codec, crash))
            active.append(_Active(chunk=chunk, process=process,
                                  out_path=out_path,
                                  started=time.monotonic(), crash=crash))
            self.stats.chunks_dispatched += 1
            self._count("chunks_dispatched")
            journal.append({"t": "dispatch", "chunk": chunk.no,
                            "attempt": chunk.attempt,
                            "points": [p.index for p in chunk.points],
                            "pid": process.pid})

    @staticmethod
    def _crash_directive(chunk) -> tuple | None:
        """Consult the ambient plan for a worker_crash chaos order.

        Parent-side on purpose: the plan's firing counters live in the
        supervisor process, so a crash injected into attempt 1 is
        consumed and the requeued attempt runs clean — exactly how a
        real transient worker death behaves.
        """
        plan = active_plan()
        if plan is None:
            return None
        for mode in CRASH_MODES:
            if plan.fires("worker_crash", strategy=mode,
                          sample=chunk.no):
                return (mode, max(1, len(chunk.points) // 2))
        return None

    def _heartbeat_age(self, entry) -> float:
        try:
            mtime = entry.out_path.stat().st_mtime
        except OSError:
            return time.monotonic() - entry.started
        age_from_start = time.monotonic() - entry.started
        age_from_beat = time.time() - mtime
        return min(age_from_start, age_from_beat)

    def _reap(self, queue, active, journal, decode, merge) -> None:
        for entry in list(active):
            process = entry.process
            if process.is_alive():
                if (self._heartbeat_age(entry)
                        <= self.config.heartbeat_timeout_s):
                    continue
                # Hung worker: no heartbeat inside the timeout. Kill it
                # and fall through to the crash path.
                self.stats.watchdog_kills += 1
                self._count("watchdog_kills")
                journal.append({"t": "watchdog_kill",
                                "chunk": entry.chunk.no,
                                "attempt": entry.chunk.attempt})
                _kill(process)
            process.join()
            active.remove(entry)
            chunk = entry.chunk
            outcomes = _load_chunk_rows(entry.out_path, decode)
            for point in list(chunk.points):
                if point.index in outcomes:
                    merge(point.index, *outcomes[point.index])
                    chunk.points.remove(point)
            if not chunk.points:
                self.stats.chunks_completed += 1
                self._count("chunks_completed")
                journal.append({"t": "done", "chunk": chunk.no,
                                "attempt": chunk.attempt,
                                "exitcode": process.exitcode})
                continue
            # The worker died (or hung) with points outstanding.
            self.stats.crashes += 1
            self._count("crashes")
            journal.append({"t": "crash", "chunk": chunk.no,
                            "attempt": chunk.attempt,
                            "exitcode": process.exitcode,
                            "missing": [p.index for p in chunk.points]})
            if chunk.attempt >= self.config.max_attempts:
                for point in chunk.points:
                    merge(point.index, "err", None, "service",
                          f"worker died (exit {process.exitcode}) on "
                          f"all {chunk.attempt} attempts")
                self.stats.quarantined += len(chunk.points)
                self._count("quarantined", len(chunk.points))
                journal.append({"t": "quarantine", "chunk": chunk.no,
                                "points": [p.index
                                           for p in chunk.points]})
                continue
            backoff = min(self.config.backoff_cap_s,
                          self.config.backoff_base_s
                          * (2.0 ** (chunk.attempt - 1)))
            chunk.ready_at = time.monotonic() + backoff
            queue.append(chunk)
            self.stats.requeues += 1
            self._count("requeues")
            journal.append({"t": "requeue", "chunk": chunk.no,
                            "attempt": chunk.attempt,
                            "backoff_s": backoff})

    def _shutdown(self, active, journal, decode, merge) -> None:
        """Terminate workers, salvage their partial chunks."""
        for entry in active:
            _kill(entry.process)
            entry.process.join()
        for entry in active:
            outcomes = _load_chunk_rows(entry.out_path, decode)
            for point in entry.chunk.points:
                if point.index in outcomes:
                    try:
                        merge(point.index, *outcomes[point.index])
                    except AnalysisError:
                        pass  # max_failures during shutdown: keep rows
        journal.append({"t": "terminated",
                        "active": [e.chunk.no for e in active]})

    # -- salvage -----------------------------------------------------------

    def _salvage(self, run_id: str, decode) -> dict:
        """Outcomes recoverable from a previous run's chunk files."""
        chunk_dir = self.service_dir(run_id) / CHUNKS_DIR
        outcomes: dict = {}
        if not chunk_dir.is_dir():
            return outcomes
        for path in sorted(chunk_dir.iterdir()):
            outcomes.update(_load_chunk_rows(path, decode))
        return outcomes


# ---------------------------------------------------------------------------
# Process plumbing


def _spawn(target, args):
    import multiprocessing
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else None)
    process = ctx.Process(target=target, args=args, daemon=True)
    process.start()
    return process


def _kill(process) -> None:
    try:
        process.kill()
    except (OSError, AttributeError, ValueError):  # pragma: no cover
        try:
            process.terminate()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Job files (the ``repro serve`` front door)


#: Experiments a job file may request; each maps to a spec builder.
JOB_EXPERIMENTS = ("mc", "functional")


def build_job_spec(request: dict):
    """Build an :class:`ExperimentSpec` from a job-file request.

    A job file is a small JSON object::

        {"experiment": "mc", "kind": "sstvs", "vddi": 0.8,
         "vddo": 1.2, "runs": 100, "seed": 7, "temperature_c": 27.0}

    ``experiment`` selects the builder (:data:`JOB_EXPERIMENTS`);
    remaining fields parameterize it. Unknown experiments or malformed
    fields raise :class:`AnalysisError` — the serve loop records the
    job as failed rather than crashing.
    """
    if not isinstance(request, dict):
        raise AnalysisError("job request must be a JSON object")
    experiment = request.get("experiment")
    if experiment == "mc":
        from repro.analysis.montecarlo import (
            MonteCarloConfig, monte_carlo_spec,
        )
        config = MonteCarloConfig(
            runs=int(request.get("runs", 25)),
            seed=int(request.get("seed", 20080310)),
            temperature_c=float(request.get("temperature_c", 27.0)))
        return monte_carlo_spec(str(request.get("kind", "sstvs")),
                                float(request.get("vddi", 0.8)),
                                float(request.get("vddo", 1.2)), config)
    if experiment == "functional":
        from repro.analysis.functional import functional_spec
        from repro.analysis.sweep import SweepGrid
        grid = SweepGrid.with_step(float(request.get("step", 0.2)))
        return functional_spec(str(request.get("kind", "sstvs")), grid)
    raise AnalysisError(
        f"unknown job experiment {experiment!r}; expected one of "
        f"{', '.join(JOB_EXPERIMENTS)}")


def serve_jobs(jobs_dir: str | Path, store, cache=None,
               config: ServiceConfig | None = None, *,
               once: bool = True, poll_s: float = 0.5,
               report=print) -> int:
    """Process ``*.json`` job files from a drop directory.

    Each job file is claimed by renaming it to ``<name>.running`` (so
    concurrent servers never double-run a job), executed through a
    :class:`CampaignService`, and finished as ``<name>.done.json`` — a
    status document with the run id, row counts and supervision stats.
    A job whose spec cannot be built or whose run raises is finished as
    ``<name>.failed.json`` with the error text.

    ``once=True`` drains the directory and returns; otherwise the loop
    polls until SIGTERM/Ctrl-C (which finish the *current* job's
    partial results cleanly first — the service's own interrupt path
    handles that). Returns the number of jobs processed.
    """
    jobs_dir = Path(jobs_dir)
    service = CampaignService(store, cache=cache, config=config)
    processed = 0
    try:
        while True:
            job_files = sorted(p for p in jobs_dir.glob("*.json")
                               if not p.name.endswith(".done.json")
                               and not p.name.endswith(".failed.json"))
            if not job_files:
                if once:
                    break
                time.sleep(poll_s)
                continue
            for path in job_files:
                claimed = path.with_suffix(".running")
                try:
                    os.rename(path, claimed)
                except OSError:
                    continue  # another server claimed it first
                processed += 1
                _run_one_job(path, claimed, service, report)
            if once:
                break
    except KeyboardInterrupt:
        report("serve: interrupted, shutting down")
    return processed


def _run_one_job(path: Path, claimed: Path, service, report) -> None:
    name = path.stem
    try:
        request = json.loads(claimed.read_text())
        spec = build_job_spec(request)
        run_id = request.get("run_id")
        resume = None
        if run_id:
            try:
                resume = service.store.load(run_id)
            except AnalysisError:
                resume = None  # first attempt: nothing stored yet
        result = service.run(spec, run_id=run_id, resume=resume)
        status = {
            "job": name, "state": ("interrupted" if result.interrupted
                                   else "done"),
            "run_id": result.run_id, "counts": result.counts,
            "stats": service.stats.to_json(),
        }
        out = path.with_name(f"{name}.done.json")
        report(f"serve: job {name}: {status['state']} "
               f"(run {result.run_id}, {result.counts['ok']} ok, "
               f"{result.counts['err']} err)")
    except Exception as exc:
        status = {"job": name, "state": "failed",
                  "error": f"{type(exc).__name__}: {exc}"}
        out = path.with_name(f"{name}.failed.json")
        report(f"serve: job {name} FAILED: {status['error']}")
    out.write_text(json.dumps(status, indent=2, sort_keys=True) + "\n")
    try:
        claimed.unlink()
    except OSError:  # pragma: no cover
        pass
