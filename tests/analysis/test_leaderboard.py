"""The standing cell x node x corner leaderboard artifact."""

import pytest

from repro.analysis.leaderboard import (
    LEADERBOARD_SCHEMA, build_leaderboard, load_leaderboard,
    rank_leaderboard, render_leaderboard, write_leaderboard,
)
from repro.errors import AnalysisError, ModelError


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
