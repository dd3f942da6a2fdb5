"""The standing cell x node x corner leaderboard artifact."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.analysis import leaderboard
from repro.analysis.leaderboard import (
    LEADERBOARD_SCHEMA, build_leaderboard, load_leaderboard,
    rank_leaderboard, render_leaderboard, write_leaderboard,
)
from repro.core.metrics import METRIC_FIELDS, ShifterMetrics
from repro.errors import AnalysisError, ModelError

COMMITTED = Path(__file__).resolve().parents[2] / "LEADERBOARD.json"

#: The fixture's cells plus ``cvs``, whose lv22 scan takes four steps.
POOL_CELLS = ["inverter", "lpls_pass", "cvs"]


def _digest(value) -> str:
    """SHA-256 over a JSON-like tree with every float as ``float.hex``
    (so NaN equals NaN and -0.0 differs from 0.0)."""
    def canon(v):
        if isinstance(v, float):
            return float(v).hex()
        if isinstance(v, dict):
            return {k: canon(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [canon(x) for x in v]
        return v
    text = json.dumps(canon(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _board_digest(board) -> str:
    return _digest({"entries": board["entries"],
                    "summaries": board["summaries"]})


@pytest.fixture(scope="module")
def board():
    return build_leaderboard(cells=["inverter", "lpls_pass"],
                             nodes=["lv22"], corners=["tt", "ss"])


class TestBuild:
    def test_schema_and_coverage(self, board):
        assert board["schema"] == LEADERBOARD_SCHEMA
        assert board["cells"] == ["inverter", "lpls_pass"]
        assert set(board["nodes"]) == {"lv22"}
        assert board["corners"] == ["tt", "ss"]
        # One entry per cell x node x corner, no silent truncation.
        assert len(board["entries"]) == 2 * 1 * 2

    def test_entries_carry_all_metrics(self, board):
        for entry in board["entries"]:
            assert entry["functional"], entry
            for field in ("delay_rise", "delay_fall", "power_rise",
                          "power_fall", "leakage_high", "leakage_low"):
                assert entry[field] > 0

    def test_node_block_carries_fingerprint_and_pair(self, board):
        info = board["nodes"]["lv22"]
        assert len(info["fingerprint"]) == 16
        assert (info["vddi"], info["vddo"]) == (0.35, 0.5)

    def test_summaries_carry_area_and_min_vddi(self, board):
        for key in ("inverter@lv22", "lpls_pass@lv22"):
            summary = board["summaries"][key]
            assert summary["area_um2"] > 0
            assert summary["device_count"] > 0
            assert 0 < summary["min_detectable_vddi"] <= 0.35

    def test_unknown_corner_rejected(self):
        with pytest.raises(AnalysisError):
            build_leaderboard(cells=["inverter"], nodes=["lv22"],
                              corners=["zz"])

    def test_unknown_node_error_lists_registry(self):
        with pytest.raises(ModelError) as err:
            build_leaderboard(cells=["inverter"], nodes=["sky130"])
        assert "ptm90" in str(err.value)

    def test_unknown_cell_error_lists_registry(self):
        with pytest.raises(AnalysisError) as err:
            build_leaderboard(cells=["warp"], nodes=["lv22"],
                              corners=["tt"])
        assert "sstvs" in str(err.value)

    def test_duplicate_selectors_are_dropped(self, board):
        dup = build_leaderboard(cells=["inverter", "inverter"],
                                nodes=["lv22", "lv22"],
                                corners=["tt", "tt"])
        assert dup["cells"] == ["inverter"]
        assert list(dup["nodes"]) == ["lv22"]
        assert dup["corners"] == ["tt"]
        assert len(dup["entries"]) == 1
        assert list(dup["summaries"]) == ["inverter@lv22"]
        first = board["entries"][0]
        assert (first["cell"], first["corner"]) == ("inverter", "tt")
        assert _digest(dup["entries"][0]) == _digest(first)
        assert render_leaderboard(dup).count("inverter") == 1

    @pytest.mark.parametrize("step", [0, 0.0, -0.05, math.nan, math.inf])
    def test_bad_min_vddi_step_rejected_before_any_solve(self, step,
                                                         monkeypatch):
        def no_solves(*args, **kwargs):
            raise AssertionError("characterized before validating step")
        monkeypatch.setattr(leaderboard, "characterize", no_solves)
        with pytest.raises(AnalysisError, match="min_vddi_step"):
            build_leaderboard(cells=["inverter"], nodes=["lv22"],
                              corners=["tt"], min_vddi_step=step)


class TestEngine:
    @pytest.fixture(scope="class")
    def serial(self):
        return build_leaderboard(cells=POOL_CELLS, nodes=["lv22"],
                                 corners=["tt", "ss"], workers=1)

    def test_pool_equals_serial_bitwise(self, serial):
        pooled = build_leaderboard(cells=POOL_CELLS, nodes=["lv22"],
                                   corners=["tt", "ss"], workers=2)
        assert _board_digest(pooled) == _board_digest(serial)
        assert serial["summaries"]["cvs@lv22"]["min_detectable_vddi"] \
            == 0.25

    def test_subset_equals_committed_leaderboard(self, serial):
        committed = json.loads(COMMITTED.read_text())
        entries = [e for e in committed["entries"]
                   if e["node"] == "lv22" and e["corner"] in ("tt", "ss")
                   and e["cell"] in POOL_CELLS]
        entries.sort(key=lambda e: (POOL_CELLS.index(e["cell"]),
                                    ["tt", "ss"].index(e["corner"])))
        summaries = {f"{cell}@lv22": committed["summaries"][f"{cell}@lv22"]
                     for cell in POOL_CELLS}
        assert len(entries) == len(serial["entries"]) == 6
        assert _board_digest(serial) == _board_digest(
            {"entries": entries, "summaries": summaries})

    def test_raising_corner_becomes_error_entry(self, monkeypatch):
        def fake(pdk, cell, vddi, vddo, plan=None):
            if pdk.corner == "ss":
                raise ValueError("no convergence at ss")
            return ShifterMetrics(*(1e-9,) * len(METRIC_FIELDS),
                                  functional=True)
        monkeypatch.setattr(leaderboard, "characterize", fake)
        board = build_leaderboard(cells=["inverter"], nodes=["lv22"],
                                  corners=["tt", "ss"], workers=1)
        tt, ss = board["entries"]
        assert tt["functional"] is True and tt["delay_rise"] == 1e-9
        assert ss == {"cell": "inverter", "node": "lv22", "corner": "ss",
                      "vddi": 0.35, "vddo": 0.5,
                      "error": "ValueError: no convergence at ss",
                      "functional": False}
        summary = board["summaries"]["inverter@lv22"]
        assert summary["min_detectable_vddi"] == 0.05
        assert "non-functional corners on: inverter" in \
            render_leaderboard(board)

    def test_progress_labels_every_point(self, monkeypatch):
        monkeypatch.setattr(
            leaderboard, "characterize",
            lambda pdk, cell, vddi, vddo, plan=None: ShifterMetrics(
                *(1e-9,) * len(METRIC_FIELDS), functional=vddi > 0.3))
        labels = []
        build_leaderboard(cells=["inverter"], nodes=["lv22"],
                          corners=["tt", "ss"], progress=labels.append)
        assert labels == ["inverter@lv22 min-VDDI scan",
                          "inverter@lv22/tt", "inverter@lv22/ss"]


class TestRankAndRender:
    def test_rank_is_sorted_typical_corner(self, board):
        ranked = rank_leaderboard(board, "lv22")
        assert [e["corner"] for e in ranked] == ["tt", "tt"]
        delays = [e["delay_rise"] for e in ranked]
        assert delays == sorted(delays)

    def test_render_mentions_every_cell(self, board):
        text = render_leaderboard(board)
        assert "inverter" in text and "lpls_pass" in text
        assert "lv22" in text

    def test_rank_rejects_unknown_metric(self, board):
        with pytest.raises(AnalysisError):
            rank_leaderboard(board, "lv22", metric="speed")


class TestArtifact:
    def test_write_load_roundtrip_and_versioning(self, board, tmp_path):
        path = str(tmp_path / "LEADERBOARD.json")
        first = write_leaderboard(board, path)
        assert first["version"] == 1
        again = write_leaderboard(board, path)
        assert again["version"] == 2
        loaded = load_leaderboard(path)
        assert loaded["version"] == 2
        assert loaded["entries"] == board["entries"]

    def test_write_creates_missing_parent_directory(self, board,
                                                    tmp_path):
        path = tmp_path / "new_dir" / "x.json"
        assert write_leaderboard(board, str(path))["version"] == 1
        assert load_leaderboard(str(path))["entries"] == board["entries"]
        assert [p.name for p in path.parent.iterdir()] == ["x.json"]

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"schema": "something-else"}')
        with pytest.raises(AnalysisError):
            load_leaderboard(str(path))
