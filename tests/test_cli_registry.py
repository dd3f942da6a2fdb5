"""CLI surface of the cell & PDK registries.

Unknown kinds and nodes must fail with the *live* registered names
(exit code 2 from argparse), every driver must accept ``--pdk``, and
the bench/check extensions must reach the registries end to end.
"""

import json

import pytest

from repro.cells.registry import cell_names
from repro.cli import build_parser, main
from repro.pdk.corners import CORNER_SHIFTS
from repro.pdk.registry import node_names
from repro.runtime.parallel import usable_cpus


class TestErrorPaths:
    @pytest.mark.parametrize("argv", [
        ["characterize", "warp"],
        ["sweep", "warp"],
        ["mc", "warp"],
        ["vtc", "warp"],
        ["liberty", "warp"],
    ])
    def test_unknown_kind_lists_registered_cells(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        message = capsys.readouterr().err
        for kind in cell_names():
            assert kind in message

    @pytest.mark.parametrize("command", [
        "characterize", "sweep", "mc", "functional", "temp", "sens",
        "liberty", "vtc", "pvt",
    ])
    def test_unknown_pdk_lists_registered_nodes(self, command, capsys):
        argv = [command, "--pdk", "sky130"]
        if command in ("characterize", "liberty", "vtc"):
            argv.insert(1, "sstvs")
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        message = capsys.readouterr().err
        for node in node_names():
            assert node in message

    def test_new_zoo_kinds_are_accepted(self):
        parser = build_parser()
        for kind in ("lpls_split", "lpls_pass", "ulpls"):
            args = parser.parse_args(["characterize", kind])
            assert args.kinds == [kind]

    def test_every_campaign_driver_has_pdk_knob(self):
        parser = build_parser()
        for argv in (["characterize", "sstvs"], ["sweep"], ["mc"],
                     ["functional"], ["temp"], ["sens"],
                     ["liberty", "sstvs"], ["vtc", "sstvs"], ["pvt"]):
            args = parser.parse_args(argv + ["--pdk", "lv22"])
            assert args.pdk == "lv22"

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    @pytest.mark.parametrize("argv", [
        ["sweep", "sstvs"], ["mc"], ["floorplan"], ["serve", "--jobs", "j"],
        ["bench", "--leaderboard"],
    ], ids=lambda argv: argv[0])
    def test_bad_workers_exit_2_with_usage(self, argv, value, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--workers", value])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert message.startswith("usage:")
        assert "--workers" in message and repr(value) in message

    @pytest.mark.parametrize("flag,value", [
        ("--restarts", "0"), ("--restarts", "-1"), ("--moves", "-5"),
        ("--moves", "many"),
    ])
    def test_bad_floorplan_counts_exit_2_with_usage(self, flag, value,
                                                    capsys):
        with pytest.raises(SystemExit) as err:
            main(["floorplan", flag, value])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert message.startswith("usage:")
        assert flag in message and repr(value) in message

    @pytest.mark.parametrize("argv,value", [
        (argv, value)
        for argv, values in (
            (["sweep", "--step"], ("0", "-0.1", "nan", "inf", "fine")),
            (["functional", "--step"], ("0", "-0.1", "nan", "inf", "fine")),
            (["show", "some-run", "--limit"], ("-1", "two")),
            (["trace", "some-run", "--limit"], ("-1", "two")),
            (["characterize", "sstvs", "--vddi"], ("nan", "0", "-0.8")),
            (["mc", "--vddo"], ("inf", "0")),
            (["--temp"], ("nan", "inf", "warm")),
            (["temp", "--temps"], ("nan", "inf")),
            (["serve", "--jobs", "j", "--once", "--heartbeat"],
             ("0", "nan", "-1")),
            (["serve", "--jobs", "j", "--once", "--poll"], ("-1", "nan")),
        )
        for value in values
    ], ids=lambda param: (param[0] if isinstance(param, list) else param))
    def test_bad_step_and_limit_exit_2_with_usage(self, argv, value,
                                                  tmp_path, capsys):
        store = tmp_path / "results"
        with pytest.raises(SystemExit) as err:
            main(argv + [value, "--out", str(store)])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert message.startswith("usage:")
        assert argv[-1] in message and repr(value) in message
        assert not store.exists()

    @pytest.mark.parametrize("argv,code", [
        (["bench"], 2),
        (["mc", "--runs", "0"], 2),
        (["characterize", "sstvs", "--vddi", "nan"], 2),
        (["area"], 0),
        (["cache", "stats", "--root", "{tmp}/cache"], 0),
        (["characterize", "ssvs_puri", "--vddi", "1.2", "--vddo", "0.8",
          "--workers", "1"], 1),
    ], ids=lambda param: (" ".join(param[:2]) if isinstance(param, list)
                          else str(param)))
    def test_exit_codes(self, argv, code, tmp_path, capsys):
        """2 for usage errors, 0 for success, 1 for a non-functional
        circuit verdict."""
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        if code == 2:
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            assert capsys.readouterr().err.startswith("usage:")
        else:
            assert main(argv) == code

    def test_negative_temperatures_parse(self):
        parser = build_parser()
        assert parser.parse_args(["--temp", "-40", "area"]).temp == -40.0
        assert parser.parse_args(["temp", "--temps", "-40",
                                  "125"]).temps == [-40.0, 125.0]

    def test_zero_limit_and_small_step_parse(self):
        parser = build_parser()
        assert parser.parse_args(["show", "r", "--limit", "0"]).limit == 0
        assert parser.parse_args(["sweep", "--step", "0.05"]).step == 0.05

    def test_zero_floorplan_moves_parse(self):
        args = build_parser().parse_args(["floorplan", "--moves", "0",
                                          "--restarts", "2"])
        assert (args.moves, args.restarts) == (0, 2)


class TestCommands:
    def test_characterize_on_lv22(self, capsys):
        code = main(["characterize", "inverter", "--pdk", "lv22",
                     "--vddi", "0.35", "--vddo", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[lv22]" in out and "Functional" in out

    def test_area_lists_the_whole_zoo(self, capsys):
        code = main(["area"])
        out = capsys.readouterr().out
        assert code == 0
        for kind in cell_names():
            assert kind in out

    def test_bench_leaderboard_writes_artifact(self, tmp_path, capsys):
        path = str(tmp_path / "LB.json")
        code = main(["bench", "--leaderboard", "--cells", "inverter",
                     "--nodes", "lv22", "--corners", "tt",
                     "--out", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "inverter" in out
        with open(path) as handle:
            board = json.load(handle)
        assert board["schema"] == "repro-leaderboard-v1"
        assert board["version"] == 1
        assert len(board["entries"]) == 1

    def test_bench_requires_leaderboard(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench"])
        assert err.value.code == 2
        assert "--leaderboard" in capsys.readouterr().err

    def test_bench_help_drops_timing_suite_options(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        assert "--leaderboard" in text and "--workers" in text
        for gone in ("--runs", "--step", "--check"):
            assert gone not in text

    def test_bench_gains_only_the_shared_workers_flag(self):
        args = build_parser().parse_args(["bench", "--leaderboard"])
        assert sorted(vars(args)) == [
            "cells", "command", "corners", "func", "leaderboard", "nodes",
            "out", "temp", "workers"]
        assert args.workers == usable_cpus()

    def test_bench_serial_board_is_byte_identical_to_default(self,
                                                            tmp_path):
        argv = ["bench", "--leaderboard", "--cells", "inverter",
                "--nodes", "lv22", "--corners", "ss"]
        default, serial = tmp_path / "default.json", tmp_path / "serial.json"
        assert main(argv + ["--out", str(default)]) == 0
        assert main(argv + ["--workers", "1", "--out", str(serial)]) == 0
        assert serial.read_bytes() == default.read_bytes()

    def test_bench_rejects_unknown_corner(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--leaderboard", "--corners", "xx"])
        assert err.value.code == 2
        message = capsys.readouterr().err
        for corner in CORNER_SHIFTS:
            assert corner in message

    def test_check_accepts_cells_flag(self):
        args = build_parser().parse_args(["check", "--cells"])
        assert args.cells is True

    def test_check_cells_smokes_the_registries(self, monkeypatch):
        # Narrow both registries so the smoke is one characterization.
        from repro.cells import registry as cells_reg
        from repro.cli import _check_cells
        from repro.pdk import registry as pdk_reg
        monkeypatch.setattr(
            cells_reg, "_CELLS",
            {"inverter": cells_reg._CELLS["inverter"]})
        monkeypatch.setattr(
            pdk_reg, "_NODES", {"lv22": pdk_reg._NODES["lv22"]})
        results = []
        _check_cells(lambda label, ok: results.append((label, ok)))
        assert len(results) == 1
        label, ok = results[0]
        assert "inverter@lv22" in label
        assert ok
