"""Standing cell x node x corner leaderboard.

``repro bench --leaderboard`` characterizes every registered cell on
every registered PDK node at every process corner (each node's
canonical up-shift pair) and folds the results into one versioned
artifact: the six metrics per (cell, node, corner), plus per
(cell, node) the estimated area and the minimum detectable input
supply (the lowest VDDI the cell still converts from, found by a
descending scan at the typical corner).

The campaign is one :class:`ExperimentSpec` on the experiment engine
(:func:`leaderboard_spec`): each corner entry is a point, and so is
each (cell, node) min-VDDI scan, whose steps stay sequential inside
its point because the scan stops at the first failure. With
``workers > 1`` the points run over a process pool, bitwise identical
to the serial run; the parent then folds the rows, in cell x corner
order, into the artifact.

The artifact is a plain dict (schema ``repro-leaderboard-v1``) written
atomically by :func:`write_leaderboard`; re-running against an
existing file bumps its ``version`` so trend diffs are first-class.
Because cells and nodes come from the registries, a third-party
topology or node registered at import time appears on the next
leaderboard run with no changes here.
"""

from __future__ import annotations

import json
import math
import os

from repro.cells.registry import cell_names, get_cell
from repro.core.characterize import StimulusPlan, characterize
from repro.core.metrics import METRIC_FIELDS
from repro.errors import AnalysisError
from repro.pdk import CornerPdk
from repro.pdk.corners import CORNER_SHIFTS
from repro.pdk.registry import get_node, node_fingerprint, node_names
from repro.runtime.experiment import (
    ExperimentPoint, ExperimentSpec, run_experiment,
)
from repro.units import format_eng

#: Artifact schema tag.
LEADERBOARD_SCHEMA = "repro-leaderboard-v1"

#: Experiment name shared by the spec and its result set.
EXPERIMENT_NAME = "leaderboard"

#: All registered corners, typical first (stable render order).
DEFAULT_CORNERS = ("tt",) + tuple(
    c for c in sorted(CORNER_SHIFTS) if c != "tt")

#: Granularity of the minimum-detectable-input scan [V].
MIN_VDDI_STEP = 0.05


def _min_detectable_vddi(cell: str, node, plan, step: float) -> float:
    """Lowest VDDI (typical corner) the cell still converts from.

    Scans downward from the node's canonical VDDI until conversion
    fails (well below the rated range — this is the discriminating
    figure for sense-amplifier-style cells); returns the last
    functional supply, or NaN if even the canonical pair fails.
    """
    vddo = float(node.default_pair[1])
    best = float("nan")
    vddi = float(node.default_pair[0])
    floor = step - 1e-12
    while vddi >= floor:
        try:
            metrics = characterize(CornerPdk("tt", node=node.name),
                                   cell, vddi, vddo, plan=plan)
        except Exception:
            break
        if not metrics.functional:
            break
        best = vddi
        vddi = round(vddi - step, 6)
    return best


def _cell_area(cell: str, node_name: str):
    """(area_um2, device_count) from the registry's area probe."""
    from repro.layout import estimate_cell_area
    from repro.pdk.registry import make_pdk
    spec = get_cell(cell)
    if spec.area_probe is None:
        return float("nan"), spec.device_count
    est = estimate_cell_area(spec.area_probe, make_pdk(node_name))
    return est.total_area_um2, est.device_count


def _measure(params: tuple):
    """One leaderboard point; shared by the serial and pool paths.

    ``("entry", cell, node, corner, plan)`` characterizes one corner at
    the node's canonical pair and returns the six metrics plus
    ``functional``; ``("scan", cell, node, plan, step)`` runs the cell's
    whole min-VDDI scan and returns its result.
    """
    point, cell, node_name, *rest = params
    node = get_node(node_name)
    if point == "scan":
        plan, step = rest
        return _min_detectable_vddi(cell, node, plan, step)
    corner, plan = rest
    vddi, vddo = (float(v) for v in node.default_pair)
    metrics = characterize(CornerPdk(corner, node=node_name), cell, vddi,
                           vddo, plan=plan)
    payload = {field: getattr(metrics, field) for field in METRIC_FIELDS}
    payload["functional"] = bool(metrics.functional)
    return payload


def _label(index) -> str:
    """Progress label of a leaderboard point index."""
    if index[0] == "scan":
        return f"{index[1]}@{index[2]} min-VDDI scan"
    return f"{index[1]}@{index[2]}/{index[3]}"


def leaderboard_spec(cells=None, nodes=None, corners=None,
                     plan: StimulusPlan | None = None,
                     min_vddi_step: float = MIN_VDDI_STEP,
                     workers: int = 1) -> ExperimentSpec:
    """Describe a leaderboard campaign declaratively.

    Selectors default to *everything registered*; repeated names are
    dropped, first occurrence kept. Every (cell, node) min-VDDI scan is
    one point, listed before the (cell, node, corner) entry points:
    the scans are the longest tasks, so a pool starts them first.
    """
    cells = tuple(dict.fromkeys(cells)) if cells else cell_names()
    nodes = tuple(dict.fromkeys(nodes)) if nodes else node_names()
    corners = tuple(dict.fromkeys(corners)) if corners else DEFAULT_CORNERS
    if not (math.isfinite(min_vddi_step) and min_vddi_step > 0):
        raise AnalysisError(
            f"min_vddi_step must be a finite step > 0 V, got "
            f"{min_vddi_step!r}")
    for corner in corners:
        if corner not in CORNER_SHIFTS:
            raise AnalysisError(
                f"unknown corner {corner!r}; known corners: "
                f"{', '.join(sorted(CORNER_SHIFTS))}")
    unknown_cells = [c for c in cells if c not in cell_names()]
    if unknown_cells:
        get_cell(unknown_cells[0])  # raises with the live listing
    for name in nodes:
        get_node(name)  # raises with the live listing

    scans = [ExperimentPoint(("scan", cell, name),
                             ("scan", cell, name, plan, min_vddi_step))
             for name in nodes for cell in cells]
    entries = [ExperimentPoint(("entry", cell, name, corner),
                               ("entry", cell, name, corner, plan))
               for name in nodes for cell in cells for corner in corners]
    return ExperimentSpec(
        name=EXPERIMENT_NAME, measure=_measure, points=scans + entries,
        stage="characterize", workers=workers,
        metadata={"experiment": EXPERIMENT_NAME, "cells": list(cells),
                  "nodes": list(nodes), "corners": list(corners),
                  "min_vddi_step": min_vddi_step})


def build_leaderboard(cells=None, nodes=None, corners=None,
                      plan: StimulusPlan | None = None,
                      min_vddi_step: float = MIN_VDDI_STEP,
                      progress=None, workers: int = 1) -> dict:
    """Characterize cells x nodes x corners into the artifact dict.

    Args default to *everything registered*; pass subsets to scope a
    quick look. ``workers > 1`` runs the points over a process pool,
    bitwise identical to the serial run. ``progress`` is an optional
    ``(label) -> None`` hook fired as each point completes (quarantined
    points excepted); like every engine callback, one that raises is
    warned about once and then suppressed. A corner whose
    characterization raises becomes an entry with the error text and
    ``functional: False``. An interrupted run (Ctrl-C, or SIGTERM,
    which the engine maps onto it) raises ``KeyboardInterrupt`` rather
    than returning a partial board.
    """
    spec = leaderboard_spec(cells, nodes, corners, plan=plan,
                            min_vddi_step=min_vddi_step, workers=workers)
    meta = spec.metadata
    cells, nodes, corners = meta["cells"], meta["nodes"], meta["corners"]
    node_info = {}
    for name in nodes:
        node = get_node(name)
        node_info[name] = {
            "fingerprint": node_fingerprint(name),
            "vddi": float(node.default_pair[0]),
            "vddo": float(node.default_pair[1]),
            "vdd_min": node.vdd_min,
            "vdd_max": node.vdd_max,
            "description": node.description,
        }

    on_point = (None if progress is None
                else lambda index, _value: progress(_label(index)))
    result = run_experiment(spec, progress=on_point)
    if result.interrupted:
        raise KeyboardInterrupt
    rows = {row.index: row for row in result.rows}

    entries = []
    summaries = {}
    for name in nodes:
        vddi, vddo = node_info[name]["vddi"], node_info[name]["vddo"]
        for cell in cells:
            for corner in corners:
                row = rows[("entry", cell, name, corner)]
                entry = {"cell": cell, "node": name, "corner": corner,
                         "vddi": vddi, "vddo": vddo}
                entry.update(row.value if row.ok
                             else {"error": row.error, "functional": False})
                entries.append(entry)
            scan = rows[("scan", cell, name)]
            if not scan.ok:
                raise AnalysisError(
                    f"{cell}@{name} min-VDDI scan failed: {scan.error}")
            area, devices = _cell_area(cell, name)
            summaries[f"{cell}@{name}"] = {
                "cell": cell, "node": name,
                "area_um2": area, "device_count": devices,
                "min_detectable_vddi": scan.value,
                "provenance": get_cell(cell).provenance,
            }

    return {
        "schema": LEADERBOARD_SCHEMA,
        "version": 1,
        "cells": cells,
        "nodes": node_info,
        "corners": corners,
        "entries": entries,
        "summaries": summaries,
    }


def rank_leaderboard(board: dict, node: str,
                     metric: str = "delay_rise") -> list:
    """Typical-corner ranking of one node's functional cells."""
    if metric not in METRIC_FIELDS:
        raise AnalysisError(f"unknown metric {metric!r}")
    rows = [e for e in board["entries"]
            if e["node"] == node and e["corner"] == "tt"
            and e.get("functional")]
    return sorted(rows, key=lambda e: e[metric])


def render_leaderboard(board: dict) -> str:
    """Text tables: per node, typical-corner metrics plus worst-corner
    delay spread, area and the min-VDDI scan result."""
    lines = []
    for name, info in board["nodes"].items():
        lines.append(f"node {name}: {info['vddi']:g} V -> "
                     f"{info['vddo']:g} V  [{info['fingerprint']}]")
        lines.append(
            f"  {'cell':<11s} {'d_rise':>9s} {'d_fall':>9s} "
            f"{'power':>9s} {'leak_hi':>9s} {'worst_d':>9s} "
            f"{'area':>7s} {'minVDDI':>8s} {'func':>4s}")
        for entry in rank_leaderboard(board, name):
            cell = entry["cell"]
            cell_entries = [e for e in board["entries"]
                            if e["node"] == name and e["cell"] == cell
                            and e.get("functional")]
            worst = max((max(e["delay_rise"], e["delay_fall"])
                         for e in cell_entries), default=float("nan"))
            summary = board["summaries"][f"{cell}@{name}"]
            min_vddi = summary["min_detectable_vddi"]
            lines.append(
                f"  {cell:<11s} "
                f"{format_eng(entry['delay_rise'], 's', 3):>9s} "
                f"{format_eng(entry['delay_fall'], 's', 3):>9s} "
                f"{format_eng(entry['power_rise'], 'W', 3):>9s} "
                f"{format_eng(entry['leakage_high'], 'A', 3):>9s} "
                f"{format_eng(worst, 's', 3):>9s} "
                f"{summary['area_um2']:>6.2f} "
                f"{min_vddi:>7.2f}V "
                f"{len(cell_entries):>3d}c")
        broken = sorted({e["cell"] for e in board["entries"]
                         if e["node"] == name and not e.get("functional")})
        if broken:
            lines.append(f"  non-functional corners on: "
                         f"{', '.join(broken)}")
        lines.append("")
    return "\n".join(lines).rstrip()


def write_leaderboard(board: dict, path: str) -> dict:
    """Atomically write the artifact, bumping ``version`` over any
    existing file at ``path``; returns the written dict."""
    previous_version = 0
    if os.path.exists(path):
        try:
            with open(path) as handle:
                previous = json.load(handle)
            previous_version = int(previous.get("version", 0))
        except (OSError, ValueError):
            previous_version = 0
    board = dict(board)
    board["version"] = previous_version + 1
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(board, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return board


def load_leaderboard(path: str) -> dict:
    """Read an artifact back, validating its schema tag."""
    with open(path) as handle:
        board = json.load(handle)
    if board.get("schema") != LEADERBOARD_SCHEMA:
        raise AnalysisError(
            f"{path} is not a leaderboard artifact "
            f"(schema {board.get('schema')!r})")
    return board
