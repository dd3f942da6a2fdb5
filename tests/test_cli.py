"""Tests for the command-line interface (in-process main())."""

import pytest

from repro.cli import build_parser, main
from repro.runtime.parallel import usable_cpus


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_kind_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "warp"])

    def test_defaults(self):
        args = build_parser().parse_args(["characterize", "sstvs"])
        assert args.vddi == 0.8
        assert args.vddo == 1.2
        assert args.temp == 27.0


class TestCommands:
    def test_characterize_sstvs(self, capsys):
        code = main(["characterize", "sstvs"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Delay Rise" in out
        assert "Functional" in out

    def test_compare(self, capsys):
        code = main(["compare", "--vddi", "1.2", "--vddo", "0.8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SS-TVS" in out and "Combined" in out

    def test_sweep_coarse(self, capsys):
        code = main(["sweep", "sstvs", "--step", "0.6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Rising delay" in out
        assert "functional fraction: 1.000" in out

    def test_sweep_summary_names_the_failing_cells(self, capsys):
        """A partly failing grid prints the exact count and the failing
        (VDDI, VDDO) cells, never a rounded fraction, and exits 1."""
        code = main(["sweep", "ssvs_puri", "--step", "0.3",
                     "--workers", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "functional fraction" not in out
        assert ("functional: 6 of 9 cells; non-functional (VDDI, VDDO): "
                "(0.8, 0.8), (1.1, 0.8), (1.4, 0.8)") in out

    def test_mc_small(self, capsys):
        code = main(["mc", "sstvs", "--runs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "yield=100.0%" in out

    def test_functional(self, capsys):
        code = main(["functional", "sstvs", "--step", "0.6"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_area(self, capsys):
        code = main(["area"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sstvs" in out

    def test_compare_follows_temp(self, tmp_path, capsys):
        """``--temp`` reaches compare's PDK: its table is the one
        characterize prints for the same two kinds at that temperature."""
        from repro.core.metrics import METRIC_FIELDS, METRIC_UNITS
        from repro.runtime.experiment import ArtifactStore
        from repro.units import format_eng
        assert main(["--temp", "90", "characterize", "sstvs", "combined",
                     "--workers", "1", "--out", str(tmp_path)]) == 0
        run_id = _stored_run_id(capsys.readouterr().out)
        metrics = {row.index: row.value
                   for row in ArtifactStore(tmp_path).load(run_id).rows}
        assert main(["--temp", "90", "compare"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == len(METRIC_FIELDS)
        for name, line in zip(METRIC_FIELDS, lines):
            assert line.split()[-3:-1] == [
                format_eng(getattr(metrics[kind], name),
                           METRIC_UNITS[name], 3)
                for kind in ("sstvs", "combined")], line

    def test_liberty_to_file(self, tmp_path, capsys):
        target = tmp_path / "cells.lib"
        code = main(["liberty", "inverter", "--vddi", "1.2",
                     "--vddo", "1.2", "-o", str(target)])
        assert code == 0
        text = target.read_text()
        assert "library (" in text
        assert "cell (" in text

    def test_vtc(self, capsys):
        code = main(["vtc", "sstvs"])
        out = capsys.readouterr().out
        assert code == 0
        assert "VOH" in out and "NML" in out

    @pytest.mark.resilience
    def test_check_self_test(self, capsys):
        code = main(["check", "--runs", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "quarantine names exactly the injected indices" in out
        assert "check passed" in out

    def test_vcd_to_file(self, tmp_path):
        target = tmp_path / "wave.vcd"
        code = main(["vcd", "sstvs", "-o", str(target)])
        assert code == 0
        text = target.read_text()
        assert "$enddefinitions" in text
        assert "$var real" in text


def _stored_run_id(output: str) -> str:
    for line in output.splitlines():
        if line.startswith("stored run: "):
            return line.split("stored run: ", 1)[1].strip()
    raise AssertionError(f"no 'stored run:' line in output:\n{output}")


@pytest.mark.experiment
class TestExperimentCommands:
    """Campaign flags, the artifact store CLI, and the engine smoke."""

    def test_temp_subcommand(self, capsys):
        code = main(["temp", "sstvs", "--temps", "27"])
        out = capsys.readouterr().out
        assert code == 0
        assert "T[C]" in out and "d_rise" in out

    def test_sens_subcommand(self, capsys):
        code = main(["sens", "--knobs", "w_mc"])
        out = capsys.readouterr().out
        assert code == 0
        assert "w_mc" in out

    def test_mc_stores_then_runs_and_show(self, tmp_path, capsys):
        code = main(["mc", "sstvs", "--runs", "2",
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        run_id = _stored_run_id(out)

        code = main(["runs", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert run_id in out

        code = main(["show", run_id, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "pdk_fingerprint" in out
        assert "seed" in out
        assert "2 rows (2 ok, 0 quarantined)" in out

    def test_mc_resume_reuses_run_dir(self, tmp_path, capsys):
        main(["mc", "sstvs", "--runs", "2", "--out", str(tmp_path)])
        run_id = _stored_run_id(capsys.readouterr().out)
        code = main(["mc", "sstvs", "--runs", "4",
                     "--out", str(tmp_path), "--resume", run_id])
        out = capsys.readouterr().out
        assert code == 0
        assert _stored_run_id(out) == run_id
        assert "4 runs" in out

    def test_trace_flag_does_not_carry_over(self, tmp_path, capsys):
        """A ``--trace`` campaign leaves the next untraced one in the
        same process untraced."""
        from repro.runtime.experiment import ArtifactStore
        run_ids = []
        for flags in (["--trace"], []):
            assert main(["mc", "sstvs", "--runs", "1", "--workers", "1",
                         "--out", str(tmp_path), *flags]) == 0
            run_ids.append(_stored_run_id(capsys.readouterr().out))
        store = ArtifactStore(tmp_path)
        assert [bool(store.manifest(run_id).get("trace"))
                for run_id in run_ids] == [True, False]

    def test_liberty_resume_reuses_run_dir(self, tmp_path, capsys):
        argv = ["liberty", "inverter", "--vddi", "1.2", "--vddo", "1.2",
                "--workers", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        run_id = _stored_run_id(first)
        assert main(argv + ["--resume", run_id]) == 0
        again = capsys.readouterr().out
        assert _stored_run_id(again) == run_id
        assert again == first

    def test_liberty_resume_of_several_kinds_exits_2(self, tmp_path,
                                                     capsys):
        with pytest.raises(SystemExit) as err:
            main(["liberty", "sstvs", "combined", "--out", str(tmp_path),
                  "--resume", "some-run"])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert message.startswith("usage: repro liberty")
        assert "--resume" in message
        assert not any(tmp_path.iterdir())

    def test_runs_with_empty_store(self, tmp_path, capsys):
        code = main(["runs", "--out", str(tmp_path)])
        assert code == 0
        assert "no stored runs" in capsys.readouterr().out

    def test_check_experiments_smoke(self, capsys):
        code = main(["check", "--runs", "2", "--experiments"])
        out = capsys.readouterr().out
        assert code == 0
        assert "experiment engine / artifact store:" in out
        assert "resume completes only the missing points" in out
        assert "FAIL" not in out


@pytest.mark.experiment
class TestCliErrorPaths:
    """Damaged stores exit nonzero with guidance, never a traceback."""

    def _store_run(self, tmp_path, capsys) -> str:
        code = main(["mc", "sstvs", "--runs", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        return _stored_run_id(capsys.readouterr().out)

    def test_trace_on_run_without_trace_section(self, tmp_path, capsys):
        run_id = self._store_run(tmp_path, capsys)
        code = main(["trace", run_id, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "no trace section" in out
        assert "--trace" in out  # tells the user how to get one

    def test_show_on_truncated_rows_file(self, tmp_path, capsys):
        run_id = self._store_run(tmp_path, capsys)
        rows = tmp_path / run_id / "rows.jsonl"
        lines = rows.read_text().splitlines()
        assert len(lines) == 2
        rows.write_text(lines[0] + "\n")
        code = main(["show", run_id, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "truncated" in out
        assert "--resume" in out and run_id in out

    def test_show_on_intact_rows_file_stays_clean(self, tmp_path,
                                                  capsys):
        run_id = self._store_run(tmp_path, capsys)
        code = main(["show", run_id, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "truncated" not in out


class TestFloorplanParser:
    def test_strategy_choices_and_default(self):
        args = build_parser().parse_args(["floorplan"])
        assert args.strategies == ["sstvs", "combined", "cvs"]
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["floorplan", "--strategies",
                                       "osmosis"])
        assert err.value.code == 2

    def test_parser_skips_floorplan_and_networkx_imports(self):
        """Building the parser must not pay for the floorplanner on
        commands that never floorplan, nor import networkx, which the
        package no longer depends on."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                     else []))
        probe = ("import sys, repro.cli; repro.cli.build_parser(); "
                 "print(sorted(m for m in ('repro.floorplan', "
                 "'networkx') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_cli_import_skips_subcommand_modules(self):
        """Importing the CLI (what every command pays before it parses)
        loads no analysis, floorplan, libchar, layout or STA module."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                     else []))
        probe = ("import sys, repro.cli; print(sorted(m for m in "
                 "sys.modules if m.startswith(('repro.analysis', "
                 "'repro.floorplan', 'repro.core.libchar', "
                 "'repro.layout', 'repro.sta'))))")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


class TestCountArguments:
    """Bad counts exit 2 with usage before anything runs, like
    ``--workers``."""

    @pytest.mark.parametrize("argv", [
        ["mc", "--runs", "0"],
        ["mc", "--runs", "-3"],
        ["check", "--runs", "0"],
        ["serve", "--jobs", "jobs", "--chunk-size", "0"],
    ])
    def test_parser_rejects_non_positive_count(self, argv):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--blocks", "0"],
        ["--blocks", "1"],
        ["--domains", "0"],
        ["--blocks", "4", "--domains", "5"],
    ])
    def test_floorplan_rejects_unbuildable_design(self, argv, tmp_path,
                                                  capsys):
        with pytest.raises(SystemExit) as err:
            main(["floorplan", *argv, "--out", str(tmp_path)])
        assert err.value.code == 2
        assert "usage: repro floorplan" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())  # no run stored

    @pytest.mark.parametrize("argv", [
        ["--required", "nan"],
        ["--required", "inf"],
        ["--required", "0"],
        ["--required", "-1"],
        ["--crossing-factor", "nan"],
        ["--crossing-factor", "inf"],
        ["--crossing-factor", "-0.5"],
    ])
    def test_floorplan_rejects_bad_float(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["floorplan", *argv, "--out", str(tmp_path)])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "usage: repro floorplan" in message and argv[0] in message
        assert not any(tmp_path.iterdir())  # no run stored

    def test_floorplan_without_crossings_signs_off(self, tmp_path,
                                                   capsys):
        """Four blocks over two domains generate no domain crossing:
        every strategy signs off with nothing to time."""
        from repro.runtime.experiment import ArtifactStore
        code = main(["floorplan", "--blocks", "4", "--domains", "2",
                     "--moves", "20", "--workers", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        run_id = _stored_run_id(capsys.readouterr().out)
        rows = ArtifactStore(tmp_path).load(run_id).rows
        assert [row.ok for row in rows] == [True] * 3
        for row in rows:
            assert row.value["crossings"] == 0
            assert row.value["signoff_ok"] is True
            assert row.value["violations"] == 0

    def test_floorplan_equal_costs_print_a_tie(self, tmp_path, capsys):
        """With no crossings every strategy costs the same, so neither
        sstvs nor cvs wins the comparison line."""
        code = main(["floorplan", "--blocks", "4", "--domains", "2",
                     "--moves", "20", "--workers", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sstvs vs cvs objective: 1.000x (tie — CVS pays 0 um" in out
        assert "wins" not in out


class TestCacheServeParser:
    def test_serve_requires_jobs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--jobs", "jobs"])
        assert args.once is False
        assert args.workers == usable_cpus()
        assert args.chunk_size == 4

    def test_cache_action_choices(self):
        args = build_parser().parse_args(["cache", "stats"])
        assert args.action == "stats" and args.root == "cache"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "defrag"])

    def test_campaign_cache_flag(self):
        args = build_parser().parse_args(["mc", "sstvs",
                                          "--cache", "solves"])
        assert args.cache == "solves"
        assert build_parser().parse_args(["mc", "sstvs"]).cache is None

    def test_check_drops_pytest_wrapper_flags(self):
        for flag in ("--golden", "--batch", "--chaos", "--floorplan",
                     "--coverage"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["check", flag])


@pytest.mark.experiment
class TestCacheServeCommands:
    def test_cache_stats_on_empty_root(self, tmp_path, capsys):
        code = main(["cache", "stats", "--root", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0" in out

    def test_mc_with_cache_then_stats_verify_clear(self, tmp_path,
                                                   capsys):
        cache_root = str(tmp_path / "solves")
        code = main(["mc", "sstvs", "--runs", "2",
                     "--cache", cache_root])
        assert code == 0
        capsys.readouterr()

        code = main(["cache", "stats", "--root", cache_root])
        out = capsys.readouterr().out
        assert code == 0
        assert "entries" in out and "2" in out

        code = main(["cache", "verify", "--root", cache_root])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 corrupt" in out

        code = main(["cache", "clear", "--root", cache_root])
        out = capsys.readouterr().out
        assert code == 0
        assert "2" in out

    def test_cache_verify_flags_corruption(self, tmp_path, capsys):
        import json as _json

        from repro.runtime.cache import SolveCache, cache_key

        cache_root = tmp_path / "solves"
        cache = SolveCache(cache_root)
        key = cache_key(x=1)
        cache.put(key, 1.0)
        entry = _json.loads(cache.entry_path(key).read_text())
        entry["value"] = 2.0  # checksum now stale
        cache.entry_path(key).write_text(_json.dumps(entry))

        with pytest.warns(RuntimeWarning):
            code = main(["cache", "verify", "--root", str(cache_root)])
        out = capsys.readouterr().out
        assert code == 1
        assert "1 corrupt" in out

    def test_mc_warm_cache_reruns_identically(self, tmp_path, capsys):
        cache_root = str(tmp_path / "solves")
        assert main(["mc", "sstvs", "--runs", "2",
                     "--cache", cache_root]) == 0
        cold = capsys.readouterr().out
        assert main(["mc", "sstvs", "--runs", "2",
                     "--cache", cache_root]) == 0
        warm = capsys.readouterr().out
        assert [l for l in warm.splitlines() if "yield" in l] \
            == [l for l in cold.splitlines() if "yield" in l]

    def test_serve_once_empty_directory(self, tmp_path, capsys):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        code = main(["serve", "--jobs", str(jobs), "--once",
                     "--out", str(tmp_path / "store")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 job(s) processed" in out

    def test_serve_once_runs_a_job_file(self, tmp_path, capsys):
        import json as _json

        jobs = tmp_path / "jobs"
        jobs.mkdir()
        (jobs / "job1.json").write_text(_json.dumps(
            {"experiment": "mc", "kind": "sstvs", "runs": 2}))
        code = main(["serve", "--jobs", str(jobs), "--once",
                     "--out", str(tmp_path / "store"),
                     "--cache", str(tmp_path / "solves")])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 job(s) processed" in out
        status = _json.loads((jobs / "job1.done.json").read_text())
        assert status["state"] == "done"
        assert status["counts"]["ok"] == 2
