"""The benchmark's workloads, how to read their outputs, and the digest.

Each workload is one ``repro`` CLI invocation, run as a fresh process
with fresh ``--out`` and ``--cache`` directories. Sizes keep what each
workload was chosen for (see README.md) while two repetitions fit in
one measured run on a 2-vCPU host.

Outputs are compared bitwise: :func:`digest` hashes a JSON-like value
with every float written as ``float.hex``, so NaN equals NaN and -0.0
differs from 0.0.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


class OutputError(Exception):
    """A workload's artefact is missing, incomplete or malformed."""


def canonical(value) -> str:
    """Exact text form of a JSON-like value (floats as ``float.hex``)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, int):
        return f"int:{value}"
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        items = ",".join(f"{json.dumps(str(key))}:{canonical(item)}"
                         for key, item in sorted(value.items()))
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(item) for item in value) + "]"
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value) -> str:
    """SHA-256 of :func:`canonical`."""
    return hashlib.sha256(canonical(value).encode()).hexdigest()


@dataclass
class Output:
    """What one run of a workload produced.

    Attributes:
        values: the compared payload (rows or leaderboard entries).
        failed: points the program quarantined as errors.
        pins: named exact values also pinned in reference.json, so a
            mismatch says which part moved.
        moves_evaluated: annealer moves (floorplan rows only).
        store_bytes: bytes in the output directory.
    """

    values: object
    failed: int
    pins: dict = field(default_factory=dict)
    moves_evaluated: int = 0
    store_bytes: int = 0

    @property
    def digest(self) -> str:
        return digest(self.values)


@dataclass(frozen=True)
class Workload:
    """One closed-loop client: a CLI command, run to completion.

    Attributes:
        argv: ``(seed, out_dir, cache_dir) -> repro argv``.
        points: points attempted per run.
        read: ``(out_dir, points) -> Output``; raises OutputError when
            the artefact is missing or incomplete.
        default_seed: seed the reference is pinned at; None when the
            workload takes no seed.
        prefix_oracle: ``(seed, out_dir, points) -> argv`` of a run on
            an independent backend whose rows must be a bitwise prefix
            of this workload's rows, or None.
    """

    name: str
    why: str
    argv: Callable
    points: int
    read: Callable
    default_seed: int | None = None
    prefix_oracle: Callable | None = None


def tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in Path(root).rglob("*")
               if path.is_file())


def read_run_rows(out_dir: Path, points: int) -> tuple[dict, list]:
    """Manifest and rows of the one stored run under ``out_dir``."""
    manifests = list(Path(out_dir).glob("*/manifest.json"))
    if len(manifests) != 1:
        raise OutputError(f"expected one stored run under {out_dir}, "
                          f"found {len(manifests)}")
    manifest = json.loads(manifests[0].read_text())
    rows = [json.loads(line) for line in
            (manifests[0].parent / "rows.jsonl").read_text().splitlines()
            if line.strip()]
    counts = manifest.get("counts", {})
    if (counts.get("interrupted") or counts.get("total") != points
            or len(rows) != points):
        raise OutputError(f"incomplete run: counts {counts}, "
                          f"{len(rows)} rows, {points} expected")
    return manifest, rows


def _rows(out_dir: Path, rows: list) -> Output:
    return Output(values=rows,
                  failed=sum(1 for row in rows if row["status"] != "ok"),
                  store_bytes=tree_bytes(out_dir))


def rows_output(out_dir: Path, points: int) -> Output:
    return _rows(out_dir, read_run_rows(out_dir, points)[1])


def floorplan_output(out_dir: Path, points: int) -> Output:
    manifest, rows = read_run_rows(out_dir, points)
    moves = manifest["metadata"]["moves"]
    output = _rows(out_dir, rows)
    pins = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        payload = row["value"]
        if payload["evaluated"] != moves + 1:
            raise OutputError(f"{row['index']}: evaluated "
                              f"{payload['evaluated']} of {moves} moves")
        output.moves_evaluated += payload["evaluated"]
        pins[f"{payload['strategy']}.placement_digest"] = \
            payload["placement_digest"]
        pins[f"{payload['strategy']}.cost"] = payload["cost"].hex()
    output.pins = pins
    return output


def leaderboard_output(out_dir: Path, points: int) -> Output:
    path = Path(out_dir) / "LEADERBOARD.json"
    if not path.is_file():
        raise OutputError(f"no leaderboard written at {path}")
    board = json.loads(path.read_text())
    entries, summaries = board["entries"], board["summaries"]
    if len(entries) + len(summaries) != points:
        raise OutputError(f"{len(entries)} entries + {len(summaries)} "
                          f"summaries, {points} expected")
    failed = sum(1 for entry in entries if "error" in entry)
    failed += sum(1 for summary in summaries.values()
                  if math.isnan(summary["min_detectable_vddi"]))
    return Output(values={"entries": entries, "summaries": summaries},
                  failed=failed, store_bytes=tree_bytes(out_dir))


#: 512 samples: four full 128-lane chunks, two per pool worker, and
#: sample 388 at the pinned seed, the all-NaN non-functional one.
MC_RUNS = 512
#: The 49-point grid of the sweep workload in BENCH_PR2-7.
SWEEP_STEP = 0.1
#: One node at its typical corner and at a CornerPdk corner.
BOARD_NODE = "lv22"
BOARD_CORNERS = ("tt", "ss")
BOARD_CELLS = 9
FLOORPLAN_BLOCKS = 1024
FLOORPLAN_MOVES = 512
FLOORPLAN_STRATEGIES = 3

WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            name="mc_sharded",
            why=("Tables 3/4 Monte Carlo on the batched lane kernel sharded "
                 "over a 2-process pool, with cache writes"),
            argv=lambda seed, out, cache: [
                "mc", "sstvs", "--runs", str(MC_RUNS), "--backend",
                "batched", "--workers", "2", "--seed", str(seed),
                "--cache", str(cache), "--out", str(out)],
            points=MC_RUNS,
            read=rows_output,
            default_seed=20080310,
            prefix_oracle=lambda seed, out, runs: [
                "mc", "sstvs", "--runs", str(runs), "--backend", "serial",
                "--seed", str(seed), "--out", str(out)],
        ),
        Workload(
            name="sweep_fig8",
            why=("Figs. 8/9 VDDI x VDDO delay surface: the serial per-point "
                 "kernel through the engine on one topology"),
            argv=lambda seed, out, cache: [
                "sweep", "sstvs", "--step", str(SWEEP_STEP), "--out",
                str(out)],
            points=49,
            read=rows_output,
        ),
        Workload(
            name="leaderboard",
            why=("every registered cell characterized at two corners plus "
                 "min-VDDI scans: the serial kernel over 9 topologies, no "
                 "engine"),
            argv=lambda seed, out, cache: [
                "bench", "--leaderboard", "--nodes", BOARD_NODE,
                "--corners", *BOARD_CORNERS,
                "--out", str(out / "LEADERBOARD.json")],
            points=(len(BOARD_CORNERS) + 1) * BOARD_CELLS,
            read=leaderboard_output,
        ),
        Workload(
            name="floorplan_1024",
            why=("SoC shifter-assignment floorplan with STA sign-off: no "
                 "SPICE and no pool, so kernel changes must not move it"),
            argv=lambda seed, out, cache: [
                "floorplan", "--blocks", str(FLOORPLAN_BLOCKS), "--moves",
                str(FLOORPLAN_MOVES), "--seed", str(seed), "--out",
                str(out)],
            points=FLOORPLAN_STRATEGIES,
            read=floorplan_output,
            default_seed=0,
        ),
    )
}
