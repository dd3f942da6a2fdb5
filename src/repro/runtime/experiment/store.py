"""Provenance-tracked artifact store for experiment runs.

Layout (one directory per run under the store root, default
``results/``)::

    results/
      mc-20260806-143102/
        manifest.json     # schema, campaign metadata, provenance, counts
        rows.jsonl        # one JSON object per ResultRow, codec-encoded

The manifest records everything needed to trust, reproduce, or resume
the run:

* ``git_sha`` — the repository HEAD when the run was written (None
  outside a git checkout);
* ``seed`` — the campaign's master seed, when it has one;
* ``retry_policy`` — the solver escalation schedule as a plain dict;
* ``pdk_fingerprint`` — a hash over every model card the PDK can
  produce, so a stored run is falsifiable against model changes;
* ``workers`` / ``wall_s`` — how it was executed and
  how long it took;
* interpreter and library versions.

Runs executed with tracing enabled additionally carry the aggregated
``repro-trace-v1`` document in the manifest's ``trace`` section (see
:mod:`repro.runtime.telemetry`); ``repro trace <run-id>`` renders it.

``rows.jsonl`` is append-friendly and line-oriented: a truncated file
(killed run, full disk) loses only its tail, and
:meth:`ArtifactStore.load` returns the surviving prefix — which is
exactly what the engine's ``resume=`` argument wants.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from repro.errors import AnalysisError
from repro.runtime.experiment.resultset import (
    RESULTSET_SCHEMA, ResultRow, ResultSet, _decode_index, get_codec,
)

#: Version tag for the manifest format; bump when fields change meaning.
MANIFEST_SCHEMA = "repro-manifest-v1"

MANIFEST_NAME = "manifest.json"
ROWS_NAME = "rows.jsonl"
#: Quarantine file for row lines that fail to parse (bit-flips,
#: interleaved partial writes); written next to ``rows.jsonl``.
ROWS_REJECTS_NAME = "rows.rejects.jsonl"

#: Default store root, relative to the working directory.
DEFAULT_ROOT = "results"


def git_sha() -> str | None:
    """HEAD commit of the enclosing git checkout, or None."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=5.0, cwd=os.getcwd())
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def pdk_fingerprint(node: str = "ptm90") -> str:
    """Stable hash over every (polarity, flavor) model card of a node.

    Any change to the node's electrical parameters changes the
    fingerprint, so a stored run carries proof of which models produced
    it. Delegates to :func:`repro.pdk.registry.node_fingerprint`
    (imported lazily: the runtime package must stay importable from
    below :mod:`repro.pdk` in the dependency graph); the ``ptm90``
    digest is byte-compatible with the historical single-node one.
    """
    from repro.pdk.registry import node_fingerprint

    return node_fingerprint(node)


def collect_provenance(spec=None, wall_s: float | None = None) -> dict:
    """Provenance block for a manifest (see module docstring)."""
    import platform

    import numpy

    from repro.runtime.policy import RetryPolicy

    policy = getattr(spec, "retry_policy", None) or RetryPolicy.default()
    metadata = getattr(spec, "metadata", None) or {}
    pdk_node = str(metadata.get("pdk_node") or "ptm90")
    return {
        "git_sha": git_sha(),
        "seed": getattr(spec, "seed", None),
        "retry_policy": asdict(policy),
        "pdk_node": pdk_node,
        "pdk_fingerprint": pdk_fingerprint(pdk_node),
        "workers": getattr(spec, "workers", None),
        "wall_s": wall_s,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "written_utc": datetime.now(timezone.utc).isoformat(),
    }


def _slug(name: str) -> str:
    cleaned = "".join(c if c.isalnum() else "-" for c in name.lower())
    while "--" in cleaned:
        cleaned = cleaned.replace("--", "-")
    return cleaned.strip("-") or "run"


class ArtifactStore:
    """Read/write experiment runs under one root directory."""

    def __init__(self, root: str | Path = DEFAULT_ROOT):
        self.root = Path(root)

    # -- paths -------------------------------------------------------------

    def path(self, run_id: str) -> Path:
        return self.root / run_id

    def _new_run_id(self, name: str) -> str:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
        base = f"{_slug(name)}-{stamp}"
        run_id, n = base, 1
        while self.path(run_id).exists():
            n += 1
            run_id = f"{base}-{n}"
        return run_id

    # -- writing -----------------------------------------------------------

    def write(self, resultset: ResultSet, spec=None,
              wall_s: float | None = None,
              run_id: str | None = None) -> str:
        """Persist a run; returns its run id (also set on the result)."""
        run_id = run_id or resultset.run_id \
            or self._new_run_id(resultset.name)
        run_dir = self.path(run_id)
        run_dir.mkdir(parents=True, exist_ok=True)

        with open(run_dir / ROWS_NAME, "w") as handle:
            for record in resultset.encoded_rows():
                handle.write(json.dumps(record, sort_keys=True) + "\n")

        manifest = {
            "schema": MANIFEST_SCHEMA,
            "run_id": run_id,
            "name": resultset.name,
            "metadata": resultset.metadata,
            "provenance": collect_provenance(spec, wall_s),
            "counts": resultset.counts,
            "resultset": {"schema": resultset.schema,
                          "codec": resultset.codec,
                          "rows_file": ROWS_NAME},
        }
        if resultset.trace is not None:
            manifest["trace"] = resultset.trace
        with open(run_dir / MANIFEST_NAME, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")

        resultset.run_id = run_id
        return run_id

    # -- reading -----------------------------------------------------------

    def list_runs(self) -> list[dict]:
        """All manifests under the root, oldest first."""
        if not self.root.is_dir():
            return []
        manifests = []
        for entry in sorted(self.root.iterdir()):
            manifest_path = entry / MANIFEST_NAME
            if not manifest_path.is_file():
                continue
            try:
                with open(manifest_path) as handle:
                    manifests.append(json.load(handle))
            except (OSError, json.JSONDecodeError):
                continue
        manifests.sort(key=lambda m: str(
            m.get("provenance", {}).get("written_utc", "")))
        return manifests

    def manifest(self, run_id: str) -> dict:
        manifest_path = self.path(run_id) / MANIFEST_NAME
        if not manifest_path.is_file():
            raise AnalysisError(
                f"no run {run_id!r} under {self.root} "
                f"(missing {MANIFEST_NAME})")
        with open(manifest_path) as handle:
            return json.load(handle)

    def load(self, run_id: str) -> ResultSet:
        """Reload a stored run as a decoded :class:`ResultSet`.

        Tolerates a damaged ``rows.jsonl``. A truncated tail (run
        killed mid-write) loses only the torn final line. A corrupt
        *interior* line (bit-flip, interleaved partial write) is
        quarantined to ``rows.rejects.jsonl`` and the valid rows around
        it still load. Either way the result is marked ``interrupted``
        so it reads as the partial run it is — and resuming it (with
        the same run id) recomputes exactly the damaged points and
        rewrites ``rows.jsonl`` whole, healing the store in place.
        """
        manifest = self.manifest(run_id)
        meta = manifest.get("resultset", {})
        schema = meta.get("schema", RESULTSET_SCHEMA)
        if schema != RESULTSET_SCHEMA:
            raise AnalysisError(
                f"run {run_id!r} uses result schema {schema!r}; this "
                f"build reads {RESULTSET_SCHEMA}")
        codec = meta.get("codec", "json")
        _, decode = get_codec(codec)

        rows: list[ResultRow] = []
        seen_indices: set = set()
        rejects: list[tuple[int, str]] = []
        rows_path = self.path(run_id) / meta.get("rows_file", ROWS_NAME)
        if rows_path.is_file():
            with open(rows_path, errors="replace") as handle:
                for line_no, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        row = ResultRow(
                            ordinal=int(record["ordinal"]),
                            index=_decode_index(record["index"]),
                            status=record["status"])
                        if row.ok:
                            row.value = decode(record.get("value"))
                        else:
                            row.stage = record.get("stage")
                            row.error = record.get("error")
                    except Exception:
                        # A line that fails to parse *or* decode is
                        # quarantined, not trusted and not fatal: the
                        # surviving rows around it still load.
                        rejects.append((line_no, line))
                        continue
                    if row.index in seen_indices:
                        # Interleaved multi-writer duplicates: first
                        # valid occurrence wins, deterministically.
                        continue
                    seen_indices.add(row.index)
                    rows.append(row)
        truncated = bool(rejects)
        if rejects:
            self._quarantine_rejects(run_id, rejects)
        rows.sort(key=lambda row: row.ordinal)

        counts = manifest.get("counts", {})
        interrupted = bool(counts.get("interrupted", False)) or truncated \
            or len(rows) < int(counts.get("total", len(rows)))
        result = ResultSet(name=manifest["name"], codec=codec,
                           metadata=dict(manifest.get("metadata", {})),
                           rows=rows, interrupted=interrupted,
                           trace=manifest.get("trace"))
        result.run_id = run_id
        return result

    def _quarantine_rejects(self, run_id: str,
                            rejects: list[tuple[int, str]]) -> None:
        """Append unparseable row lines to ``rows.rejects.jsonl``.

        Best-effort: a read-only store (or a full disk) must not turn a
        tolerant load into a failure, so write errors are warned about
        and swallowed — the bad lines are simply dropped from the
        loaded result either way.
        """
        import warnings
        rejects_path = self.path(run_id) / ROWS_REJECTS_NAME
        try:
            with open(rejects_path, "a") as handle:
                for line_no, raw in rejects:
                    handle.write(json.dumps(
                        {"line": line_no, "raw": raw},
                        sort_keys=True) + "\n")
        except OSError as exc:
            warnings.warn(
                f"run {run_id!r}: could not quarantine "
                f"{len(rejects)} corrupt row line(s) to "
                f"{ROWS_REJECTS_NAME} ({exc}); lines dropped",
                RuntimeWarning, stacklevel=3)
        else:
            warnings.warn(
                f"run {run_id!r}: {len(rejects)} corrupt row line(s) "
                f"quarantined to {ROWS_REJECTS_NAME}; resume the run "
                f"to recompute and heal them", RuntimeWarning,
                stacklevel=3)
