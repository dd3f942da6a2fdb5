"""Command-line interface: ``python -m repro <command> ...``.

Every subcommand is declared once, in :data:`COMMANDS`; :func:`build_parser`
and :func:`main` are generated from that table, and a subcommand's
modules are imported only when it runs. Cell kinds and PDK nodes come
from the live registries, so unknown names fail listing what *is*
registered.

A campaign subcommand names a library spec builder, an assembler from
engine rows to the library's result type and a text renderer that picks
the exit code. :func:`_run_campaign` runs it through the experiment
engine under the shared flags: ``--workers N`` (a process pool, results
identical to a serial run; the default is every CPU the process may run
on, ``1`` runs in-process), ``--out DIR`` (persist the run with a
provenance manifest), ``--resume RUN-ID`` (complete a stored run in
place), ``--cache DIR`` (a content-addressed solve cache) and
``--trace`` / ``--profile`` (per-point solver telemetry, rendered by
``repro trace <run-id>``).
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys
from functools import partial
from typing import Callable, NamedTuple

from repro.cells.registry import FLOORPLAN_STRATEGIES, cell_names
from repro.core.metrics import METRIC_FIELDS, METRIC_LABELS, METRIC_UNITS
from repro.pdk.corners import CORNER_SHIFTS
from repro.pdk.registry import make_pdk, node_names
from repro.runtime.parallel import usable_cpus
from repro.units import format_eng


def _positive_int(text: str) -> int:
    """argparse type for a count of at least 1 (exit 2 otherwise)."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    """argparse type for a count of at least 0 (exit 2 otherwise)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _finite_float(text: str, positive: bool = False) -> float:
    """argparse type for a finite number, above 0 if ``positive``
    (exit 2 otherwise)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or (positive and value <= 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite{' positive' if positive else ''} "
            f"number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for a finite value above 0 (exit 2 otherwise)."""
    return _finite_float(text, positive=True)


# -- argument declarations: each adds its options to a subparser ----------

def _arg(*flags, **kwargs) -> Callable:
    """One plain option, declared as data."""
    return lambda parser: parser.add_argument(*flags, **kwargs)


def _kind_arg(dest: str, **kwargs) -> Callable:
    """A cell-kind positional, its choices from the live registry."""
    return lambda parser: parser.add_argument(
        dest, choices=cell_names(), metavar="kind", **kwargs)


_KIND = _kind_arg("kind", nargs="?", default="sstvs")
_ONE_KIND = _kind_arg("kind")
_KINDS = _kind_arg("kinds", nargs="+")


def _voltages(parser) -> None:
    parser.add_argument("--vddi", type=_positive_float, default=0.8,
                        help="input-domain supply [V]")
    parser.add_argument("--vddo", type=_positive_float, default=1.2,
                        help="output-domain supply [V]")


def _pdk(parser) -> None:
    parser.add_argument("--pdk", default="ptm90", choices=node_names(),
                        help="registered PDK node to run on (choices "
                             "come from the live node registry; see "
                             "README 'Cell & PDK zoo')")


def _backend(parser) -> None:
    parser.add_argument("--backend", default=None,
                        choices=("serial", "batched"),
                        help="execution backend (default and "
                             "'batched': same-topology points run as "
                             "SPMD lanes, with lane groups sharded "
                             "over the pool when --workers > 1; "
                             "'serial' measures one point at a time "
                             "in-process; --trace keeps one point per "
                             "task — see README Performance)")
    parser.add_argument("--solver", default=None,
                        choices=("auto", "dense", "sparse"),
                        help="linear-solve kernel (default auto: dense "
                             "LAPACK below the size threshold, sparse "
                             "pattern-reuse LU above; an execution "
                             "knob — results and cache keys are "
                             "unaffected)")


def _workers(help_text: str) -> Callable:
    def add(parser) -> None:
        parser.add_argument("--workers", type=_positive_int,
                            default=usable_cpus(),
                            help=f"{help_text} (default: %(default)s, "
                                 f"the CPUs this process may run on)")
    return add


def _campaign(parser) -> None:
    """The shared campaign flags, which :func:`_run_spec` resolves."""
    _workers("process-pool width, one point or lane group per task; "
             "1 runs in-process")(parser)
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="artifact-store root; persists the run as "
                             "DIR/<run-id>/ with a provenance manifest")
    parser.add_argument("--resume", default=None, metavar="RUN_ID",
                        help="reload this stored run and compute only "
                             "the missing points (implies --out, "
                             "default 'results')")
    parser.add_argument("--trace", action="store_true",
                        help="record per-point solver telemetry into the "
                             "run manifest (implies --out; see "
                             "'repro trace')")
    parser.add_argument("--profile", action="store_true",
                        help="like --trace plus a cProfile per point "
                             "(heavyweight; for digging into slow points)")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="content-addressed solve cache root; "
                             "points already solved with identical "
                             "netlist/PDK/stimulus/tolerances are "
                             "served from the cache, bitwise identical "
                             "to a live solve")


_STORE_ROOT = _arg("--out", default=None, metavar="DIR",
                   help="artifact-store root (default: results)")
_STEP = _arg("--step", type=_positive_float, default=0.2)


def _leaderboard_filters(parser) -> None:
    parser.add_argument("--cells", nargs="+", default=None,
                        choices=cell_names(), metavar="cell",
                        help="leaderboard: restrict to these cells")
    parser.add_argument("--nodes", nargs="+", default=None,
                        choices=node_names(), metavar="node",
                        help="leaderboard: restrict to these PDK nodes")
    parser.add_argument("--corners", nargs="+", default=None,
                        choices=tuple(CORNER_SHIFTS), metavar="corner",
                        help="leaderboard: restrict to these corners "
                             "(default: all)")


# -- the campaign path -----------------------------------------------------

def _run_spec(args, spec):
    """Run ``spec`` through the engine under the shared flags.

    The trace mode is set from this command's flags alone, so an earlier
    ``--trace`` in the same process does not carry over. A trace mode,
    ``--out`` or ``--resume`` opens the artifact store (default root
    ``results``); ``compare`` has none of the flags.
    """
    from repro.runtime import telemetry
    from repro.runtime.cache import SolveCache
    from repro.runtime.experiment import run_experiment
    flags = vars(args)
    mode = ("profile" if flags.get("profile")
            else "collect" if flags.get("trace") else None)
    telemetry.set_campaign_trace_mode(mode)
    run_id, cache = flags.get("resume"), flags.get("cache")
    store = _store(args) if flags.get("out") or run_id or mode else None
    return run_experiment(spec, store=store, run_id=run_id,
                          resume=store.load(run_id) if run_id else None,
                          cache=SolveCache(cache) if cache else None)


def _store(args):
    from repro.runtime.experiment import ArtifactStore, DEFAULT_ROOT
    return ArtifactStore(args.out or DEFAULT_ROOT)


def _run_campaign(command: Command, args) -> int:
    """Build the spec, run it, render the assembled result."""
    resultset = result = _run_spec(args, command.spec(args))
    if command.assemble:
        module, _, name = command.assemble.partition(":")
        result = getattr(importlib.import_module(module), name)(resultset)
    code = command.render(args, result)
    if resultset.run_id:
        print(f"stored run: {resultset.run_id}")
    return code


def _verdict(text: str, ok: bool) -> int:
    print(text)
    return 0 if ok else 1


def _characterize_spec(args):
    from repro.core.characterize import characterize_kinds_spec
    return characterize_kinds_spec(args.kinds, args.vddi, args.vddo,
                                   pdk=make_pdk(args.pdk, args.temp),
                                   workers=args.workers)


def _compare_spec(args):
    from repro.core.characterize import characterize_kinds_spec
    pdk = make_pdk("ptm90", args.temp)
    return characterize_kinds_spec(("sstvs", "combined"), args.vddi,
                                   args.vddo, pdk=pdk)


def _render_characterize(args, results) -> int:
    for kind, metrics in results.items():
        print(metrics.pretty(f"{kind} [{args.pdk}]: {args.vddi} V -> "
                             f"{args.vddo} V @ {args.temp} C"))
    return 0 if all(m.functional for m in results.values()) else 1


def _render_compare(args, results) -> int:
    sstvs, combined = results["sstvs"], results["combined"]
    print(f"{'Performance Parameter':<24s} {'SS-TVS':>12s} "
          f"{'Combined':>12s} {'advantage':>10s}")
    for name in METRIC_FIELDS:
        a, b = getattr(sstvs, name), getattr(combined, name)
        print(f"{METRIC_LABELS[name]:<24s} "
              f"{format_eng(a, METRIC_UNITS[name], 3):>12s} "
              f"{format_eng(b, METRIC_UNITS[name], 3):>12s} "
              f"{(b / a if a else float('nan')):>9.2f}x")
    return 0


def _sweep_spec(args):
    from repro.analysis.sweep import SweepGrid, sweep_spec
    return sweep_spec(args.kind, SweepGrid.with_step(args.step),
                      pdk=make_pdk(args.pdk, args.temp),
                      workers=args.workers)


def _render_sweep(args, surface) -> int:
    from repro.analysis.sweep import render_surface_ascii
    print("Rising delay [ps]:")
    print(render_surface_ascii(surface, "rise"))
    print("\nFalling delay [ps]:")
    print(render_surface_ascii(surface, "fall"))
    failing = [(surface.vddi_values[i], surface.vddo_values[j])
               for i, j in zip(*(~surface.functional).nonzero())]
    if not failing:
        print("\nfunctional fraction: 1.000")
        return 0
    cells = surface.functional.size
    shown = ", ".join(f"({vddi:g}, {vddo:g})" for vddi, vddo in failing[:10])
    more = f", and {len(failing) - 10} more" if len(failing) > 10 else ""
    print(f"\nfunctional: {cells - len(failing)} of {cells} cells; "
          f"non-functional (VDDI, VDDO): {shown}{more}")
    return 1


def _mc_spec(args):
    from repro.analysis.montecarlo import MonteCarloConfig, monte_carlo_spec
    config = MonteCarloConfig(runs=args.runs, seed=args.seed,
                              temperature_c=args.temp,
                              workers=args.workers, backend=args.backend,
                              solver=args.solver, pdk_node=args.pdk)
    return monte_carlo_spec(args.kind, args.vddi, args.vddo, config)


def _render_mc(args, result) -> int:
    title = (f"{args.kind} MC, {args.vddi} -> {args.vddo} V, "
             f"{args.runs} runs, {args.temp} C")
    if result.statistics is not None:
        print(result.statistics.pretty(title))
    else:
        print(f"{title}\n  no successful samples")
    if result.failures or result.interrupted:
        print(result.failure_summary())
    return 0 if result.functional_yield == 1.0 else 1


def _functional_spec(args):
    from repro.analysis.functional import functional_spec
    from repro.analysis.sweep import SweepGrid
    return functional_spec(args.kind, SweepGrid.with_step(args.step),
                           pdk=make_pdk(args.pdk, args.temp),
                           workers=args.workers, backend=args.backend,
                           solver=args.solver)


def _temp_spec(args):
    from repro.analysis.temperature import temperature_spec
    return temperature_spec(args.kind, args.vddi, args.vddo,
                            temperatures=tuple(args.temps),
                            workers=args.workers, pdk_node=args.pdk)


def _render_temp(args, points) -> int:
    print(f"{args.kind} [{args.pdk}], {args.vddi} V -> {args.vddo} V:")
    print(f"  {'T[C]':>6s} {'d_rise':>9s} {'d_fall':>9s} "
          f"{'leak_hi':>9s} {'func':>5s}")
    for p in points:
        m = p.metrics
        print(f"  {p.temperature_c:>6.1f} "
              f"{format_eng(m.delay_rise, 's', 3):>9s} "
              f"{format_eng(m.delay_fall, 's', 3):>9s} "
              f"{format_eng(m.leakage_high, 'A', 3):>9s} "
              f"{str(m.functional):>5s}")
    return 0 if all(p.metrics.functional for p in points) else 1


def _sens_spec(args):
    from repro.analysis.sensitivity import SIZING_KNOBS, sensitivity_spec
    return sensitivity_spec(args.kind, args.vddi, args.vddo,
                            knobs=tuple(args.knobs or SIZING_KNOBS),
                            pdk=make_pdk(args.pdk, args.temp),
                            workers=args.workers)


def _render_sens(args, sensitivities) -> int:
    from repro.analysis.sensitivity import render_sensitivity_table
    print(render_sensitivity_table(sensitivities))
    return 0


def _vtc_spec(args):
    from repro.analysis.noise_margin import vtc_spec
    return vtc_spec(args.kind, pairs=((args.vddi, args.vddo),),
                    pdk=make_pdk(args.pdk, args.temp),
                    workers=args.workers)


def _render_vtc(args, report) -> int:
    if report.failures:
        for f in report.failures:
            print(f"VTC extraction failed at {f.index}: "
                  f"[{f.stage}] {f.error}")
        return 1
    vtc = report.results[(args.vddi, args.vddo)]
    print(f"{args.kind} VTC at ({args.vddi} V -> {args.vddo} V):")
    print(f"  VOH={vtc.voh:.3f} V  VOL={vtc.vol:.3f} V  "
          f"swing={vtc.output_swing:.3f} V")
    print(f"  VIL={vtc.vil:.3f} V  VIH={vtc.vih:.3f} V  "
          f"Vsw={vtc.switching_point:.3f} V")
    print(f"  NML={vtc.nml:.3f} V  NMH={vtc.nmh:.3f} V  "
          f"regenerative={vtc.regenerative()}")
    return 0


def _pvt_spec(args):
    from repro.analysis.corners import pvt_spec
    return pvt_spec(args.kind, args.vddi, args.vddo, workers=args.workers,
                    pdk_node=args.pdk)


def _check_liberty(args) -> str | None:
    if args.resume and len(args.kinds) > 1:
        return ("--resume completes one stored run, and liberty stores "
                "one run per kind; resume one kind at a time")


def cmd_liberty(args) -> int:
    """NLDM-characterize each kind (one campaign per kind) to .lib."""
    from repro.core.libchar import (
        cell_from_resultset, libchar_spec, write_liberty,
    )
    pdk = make_pdk(args.pdk, args.temp)
    runs = [_run_spec(args, libchar_spec(kind, args.vddi, args.vddo, pdk,
                                         workers=args.workers))
            for kind in args.kinds]
    text = write_liberty([cell_from_resultset(run) for run in runs])
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({len(runs)} cells)")
    for run in runs:
        if run.run_id:
            print(f"stored run: {run.run_id}")
    return 0


def _floorplan_design(args):
    """Resolve a bridged Verilog design, or None for the generator."""
    if not args.verilog:
        return None
    from repro.errors import AnalysisError
    from repro.floorplan import design_from_verilog
    from repro.verilog import parse_verilog
    with open(args.verilog) as handle:
        modules = parse_verilog(handle.read())
    if args.top and args.top not in modules:
        raise AnalysisError(f"no module {args.top!r} in {args.verilog} "
                            f"(have {sorted(modules)})")
    module = modules[args.top] if args.top else next(iter(modules.values()))

    def pairs(entries, flag: str, form: str) -> dict:
        parsed = {}
        for entry in entries:
            key, _, value = entry.partition("=")
            if not value:
                raise AnalysisError(f"{flag} wants {form}, got {entry!r}")
            parsed[key] = value
        return parsed

    domains = {name: float(volts) for name, volts in
               pairs(args.domain, "--domain", "NAME=VOLTS").items()}
    return design_from_verilog(
        module, pairs(args.block_domain, "--block-domain",
                      "INSTANCE=DOMAIN"), domains)


def _check_floorplan(args) -> str | None:
    """Reject a synthetic design the generator cannot build before a
    run is stored in which every point fails."""
    if args.verilog:
        return None
    if args.blocks < 2:
        return f"--blocks must be at least 2, got {args.blocks}"
    if not 2 <= args.domains <= args.blocks:
        return (f"--domains must be in [2, --blocks={args.blocks}], got "
                f"{args.domains}")
    if not (math.isfinite(args.crossing_factor)
            and args.crossing_factor >= 0):
        return (f"--crossing-factor must be finite and >= 0, got "
                f"{args.crossing_factor}")


def _floorplan_spec(args):
    from repro.floorplan import floorplan_spec, leaderboard_leakage
    design = _floorplan_design(args)
    leakage = args.leakage
    if leakage == "leaderboard":
        from repro.analysis.leaderboard import load_leaderboard
        leakage = leaderboard_leakage(load_leaderboard(args.board),
                                      args.pdk)
    return floorplan_spec(
        design=design, blocks=args.blocks, domains=args.domains,
        design_seed=args.design_seed,
        crossing_factor=args.crossing_factor,
        strategies=tuple(args.strategies), seed=args.seed,
        restarts=args.restarts, moves=args.moves,
        required=args.required * 1e-9, timing=args.timing,
        node=args.pdk, leakage=leakage,
        require_signoff=args.require_signoff, workers=args.workers)


def _render_floorplan(args, result) -> int:
    from repro.floorplan import best_by_strategy
    print(f"floorplan campaign [{args.pdk}]: "
          f"{result.metadata['blocks']} blocks, "
          f"{result.metadata['moves']} moves/anneal, required "
          f"{args.required:g} ns ({args.timing} timing)")
    print(f"  {'point':>14s} {'cost':>12s} {'bbox[um2]':>11s} "
          f"{'rails[um]':>10s} {'slack[ps]':>10s} {'signoff':>8s}")
    for row in result.rows:
        if not row.ok:
            print(f"  {str(row.index):>14s} [{row.stage}] {row.error}")
            continue
        p = row.value
        verdict = "MET" if p["signoff_ok"] else "VIOLATED"
        print(f"  {str(row.index):>14s} {p['cost']:>12.1f} "
              f"{p['area']:>11.0f} {p['rail_length']:>10.0f} "
              f"{p['worst_slack'] * 1e12:>10.1f} {verdict:>8s}")
    best = best_by_strategy(result)
    for strategy, payload in best.items():
        print(f"  best {strategy:>8s}: cost {payload['cost']:.1f} "
              f"(seed {payload['seed']}, digest "
              f"{payload['placement_digest'][:12]})")
    if "sstvs" in best and "cvs" in best:
        ratio = best["cvs"]["cost"] / best["sstvs"]["cost"]
        verdict = ("tie" if ratio == 1 else
                   "sstvs wins" if ratio > 1 else "cvs wins")
        print(f"  sstvs vs cvs objective: {ratio:.3f}x ({verdict} — CVS "
              f"pays {best['cvs']['rail_length']:.0f} um of extra "
              f"supply rail)")
    if result.interrupted:
        print("interrupted — partial results stored")
    failures = result.counts["err"]
    return 0 if failures == 0 and not result.interrupted else 1


# -- the other subcommands -------------------------------------------------

def cmd_area(args) -> int:
    from repro.cells.registry import get_cell
    from repro.layout import estimate_cell_area
    pdk = make_pdk(args.pdk)
    for name in cell_names():
        spec = get_cell(name)
        if spec.area_probe is None:
            print(f"{name:12s} {'n/a':>10s} ({spec.device_count} devices, "
                  f"no area probe registered)")
            continue
        est = estimate_cell_area(spec.area_probe, pdk)
        print(f"{name:12s} {est.total_area_um2:6.2f} um^2 "
              f"({est.device_count} devices)")
    return 0


def cmd_runs(args) -> int:
    """List stored experiment runs (``results/<run-id>/``)."""
    store = _store(args)
    manifests = store.list_runs()
    if not manifests:
        print(f"no stored runs under {store.root}")
        return 0
    print(f"{'run id':<36s} {'name':<14s} {'ok':>5s} {'err':>4s} "
          f"{'written (UTC)':<20s}")
    for manifest in manifests:
        counts = manifest.get("counts", {})
        written = str(manifest.get("provenance", {})
                      .get("written_utc", ""))[:19]
        flags = " interrupted" if counts.get("interrupted") else ""
        print(f"{manifest.get('run_id', '?'):<36s} "
              f"{manifest.get('name', '?'):<14s} "
              f"{counts.get('ok', 0):>5d} {counts.get('err', 0):>4d} "
              f"{written:<20s}{flags}")
    return 0


def cmd_show(args) -> int:
    """Show one stored run: provenance manifest plus row summary."""
    store = _store(args)
    manifest = store.manifest(args.run_id)
    prov = manifest.get("provenance", {})
    print(f"run {manifest.get('run_id')}: {manifest.get('name')}")
    for key in ("written_utc", "git_sha", "pdk_fingerprint", "seed",
                "workers", "wall_s", "python", "numpy"):
        value = prov.get(key)
        if value is not None:
            print(f"  {key:16s} {value}")
    metadata = manifest.get("metadata", {})
    if metadata:
        print("  metadata:")
        for key in sorted(metadata):
            print(f"    {key:14s} {metadata[key]}")
    resultset = store.load(args.run_id)
    print(resultset.pretty(limit=args.limit or len(resultset.rows)))
    counts = manifest.get("counts", {})
    expected = int(counts.get("total", len(resultset.rows)))
    if (len(resultset.rows) < expected
            and not counts.get("interrupted")):
        print(f"ERROR: rows.jsonl for run {args.run_id!r} is truncated: "
              f"the manifest records {expected} rows but only "
              f"{len(resultset.rows)} could be read. The store is "
              f"damaged — resume the campaign with --resume "
              f"{args.run_id} to heal it, or re-run with --out.")
        return 1
    return 0


def cmd_trace(args) -> int:
    """Render the ``repro-trace-v1`` section of a stored run."""
    from repro.runtime.telemetry import render_trace
    manifest = _store(args).manifest(args.run_id)
    document = manifest.get("trace")
    if not document:
        print(f"run {args.run_id!r} has no trace section; rerun the "
              f"campaign with --trace (or --profile)")
        return 1
    print(f"run {manifest.get('run_id')}: {manifest.get('name')}")
    print(render_trace(document, limit=args.limit))
    return 0


def cmd_vcd(args) -> int:
    from repro.core.characterize import StimulusPlan, run_stimulus
    from repro.spice.vcd import write_vcd
    result, probes = run_stimulus(make_pdk(args.pdk, args.temp),
                                  args.kind, args.vddi,
                                  args.vddo, StimulusPlan())
    nodes = [probes.in_node, probes.out_node]
    nodes += list(probes.internal.get("nodes", {}).values())
    text = write_vcd(result, nodes,
                     comment=f"{args.kind} {args.vddi}->{args.vddo}")
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"wrote {args.output} ({len(nodes)} signals, "
          f"{result.sample_count} samples)")
    return 0


def cmd_serve(args) -> int:
    """Supervised campaign service over a job drop directory.

    Watches ``--jobs DIR`` for ``*.json`` job files, runs each through
    the supervised :class:`~repro.runtime.service.CampaignService`
    (durable journal, worker watchdog, crash requeue with backoff,
    SIGTERM-clean shutdown) and finishes it as ``<name>.done.json`` /
    ``<name>.failed.json``. ``--once`` drains the directory and exits.
    """
    from repro.runtime.service import ServiceConfig, serve_jobs
    config = ServiceConfig(workers=args.workers,
                           chunk_size=args.chunk_size,
                           heartbeat_timeout_s=args.heartbeat)
    processed = serve_jobs(args.jobs, _store(args), cache=args.cache,
                           config=config, once=args.once,
                           poll_s=args.poll)
    print(f"serve: {processed} job(s) processed")
    return 0


def cmd_cache(args) -> int:
    """Inspect or maintain a content-addressed solve cache."""
    from repro.runtime.cache import SolveCache
    cache = SolveCache(args.root)
    if args.action == "stats":
        report = cache.verify()
        print(f"cache {cache.root}:")
        print(f"  entries      {report['entries']}")
        print(f"  ok           {report['ok']}")
        print(f"  corrupt      {report['corrupt']}")
        print(f"  stray tmp    {report['stray_tmp']}")
        print(f"  quarantined  {report['quarantined_total']}")
        print(f"  bytes        {cache.total_bytes()}")
        return 0
    if args.action == "verify":
        report = cache.verify()
        print(f"cache {cache.root}: {report['entries']} entries, "
              f"{report['corrupt']} corrupt, "
              f"{report['stray_tmp']} stray tmp")
        if report["corrupt"]:
            print("corrupt entries were quarantined; they will be "
                  "recomputed on next use")
        return 1 if report["corrupt"] else 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"cache {cache.root}: removed {removed} entries")
        return 0
    raise AssertionError(f"unhandled cache action {args.action!r}")


def cmd_bench(args) -> int:
    """Characterize cells x nodes x corners into the standing artifact."""
    from repro.analysis.leaderboard import (
        build_leaderboard, render_leaderboard, write_leaderboard,
    )

    def progress(label: str) -> None:
        print(f"\r  {label:<44s}", end="", flush=True)

    board = build_leaderboard(cells=args.cells, nodes=args.nodes,
                              corners=args.corners, progress=progress,
                              workers=args.workers)
    print("\r" + " " * 48 + "\r", end="")
    board = write_leaderboard(board, args.out)
    print(render_leaderboard(board))
    entries = len(board["entries"])
    print(f"wrote {args.out} (version {board['version']}, "
          f"{entries} corner entries)")
    return 0


def _check_cells(check) -> None:
    """Registry smoke: every cell characterizes on every node."""
    from repro.core.characterize import characterize
    from repro.pdk.registry import get_node
    print("cell & PDK registry smoke (every cell x node, canonical "
          "pair):")
    for node_name in node_names():
        node = get_node(node_name)
        vddi, vddo = node.default_pair
        for cell in cell_names():
            label = (f"{cell}@{node_name} converts "
                     f"{vddi:g} V -> {vddo:g} V")
            try:
                metrics = characterize(make_pdk(node_name), cell,
                                       vddi, vddo)
            except Exception as exc:
                check(f"{label} ({type(exc).__name__}: {exc})", False)
            else:
                check(label, metrics.functional)


def _check_experiments(check) -> None:
    """Engine + artifact-store smoke: run, persist, reload, resume."""
    import tempfile

    from repro.runtime.experiment import (
        ArtifactStore, ExperimentPoint, ExperimentSpec, run_experiment,
    )

    print("experiment engine / artifact store:")
    spec = ExperimentSpec(
        name="smoke", measure=_smoke_measure,
        points=[ExperimentPoint(i, float(i)) for i in range(6)],
        codec="json", seed=1234, metadata={"experiment": "smoke"})
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        resultset = run_experiment(spec, store=store)
        check("engine computes every point",
              resultset.values() == [float(i) ** 2 for i in range(6)])
        check("store assigns a run id",
              bool(resultset.run_id)
              and store.path(resultset.run_id).is_dir())

        manifest = store.manifest(resultset.run_id)
        prov = manifest.get("provenance", {})
        check("manifest records provenance",
              manifest.get("schema", "").startswith("repro-manifest")
              and prov.get("seed") == 1234
              and bool(prov.get("pdk_fingerprint"))
              and "retry_policy" in prov)

        reloaded = store.load(resultset.run_id)
        check("stored rows reload bitwise",
              reloaded.values() == resultset.values())

        # Truncate the row file mid-line and resume from the survivor.
        rows_path = store.path(resultset.run_id) / "rows.jsonl"
        text = rows_path.read_text()
        rows_path.write_text(text[: len(text) * 2 // 3])
        partial = store.load(resultset.run_id)
        check("truncated run loads as interrupted partial",
              partial.interrupted
              and 0 < len(partial.rows) < len(resultset.rows))
        resumed = run_experiment(spec, resume=partial)
        check("resume completes only the missing points",
              resumed.values() == resultset.values()
              and not resumed.interrupted)


def _smoke_measure(x: float) -> float:
    """Trivial measurement for the ``check --experiments`` smoke."""
    return x * x


def cmd_check(args) -> int:
    """Fault-injected self-test of the resilient solver runtime.

    Exercises every fallback rung with deterministic faults, then runs
    a small fault-injected Monte Carlo smoke campaign; exits nonzero if
    any solver escape goes uncaught or the quarantine bookkeeping is
    wrong. ``--cells`` adds a registry smoke (every cell on every node
    at its canonical pair) and ``--experiments`` an engine/artifact-store
    round-trip (persist, reload, truncate, resume); the test batteries
    run under ``pytest -m golden|batch|chaos|floorplan``.
    """
    from repro.analysis import MonteCarloConfig, run_monte_carlo
    from repro.core import StimulusPlan
    from repro.errors import ConvergenceError
    from repro.runtime import FaultPlan, FaultSpec
    from repro.spice import Circuit
    from repro.spice.devices import Diode, Resistor, VoltageSource
    from repro.spice.newton import solve_dc_report

    failures: list[str] = []

    def _check(label: str, ok: bool) -> None:
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
        if not ok:
            failures.append(label)

    def _diode_circuit():
        ckt = Circuit("check")
        ckt.add(VoltageSource("v", "a", "0", dc=5.0))
        ckt.add(Resistor("r", "a", "d", 1e3))
        ckt.add(Diode("d1", "d", "0"))
        ckt.finalize()
        return ckt

    print("solver retry ladder:")
    plan = FaultPlan([FaultSpec("iteration_exhaustion", strategy="newton")])
    try:
        _, report = solve_dc_report(_diode_circuit(), faults=plan)
        _check("gmin ladder rescues an injected Newton failure",
               report.converged and report.winning_strategy == "gmin"
               and not report.attempts[0].converged)
    except ConvergenceError:
        _check("gmin ladder rescues an injected Newton failure", False)

    plan = FaultPlan([FaultSpec("iteration_exhaustion", strategy="newton"),
                      FaultSpec("singular_jacobian", strategy="gmin",
                                count=None)])
    try:
        _, report = solve_dc_report(_diode_circuit(), faults=plan)
        _check("source stepping rescues an injected gmin failure",
               report.converged and report.winning_strategy == "source")
    except ConvergenceError:
        _check("source stepping rescues an injected gmin failure", False)

    plan = FaultPlan([FaultSpec("iteration_exhaustion", count=None)])
    try:
        solve_dc_report(_diode_circuit(), faults=plan)
        _check("exhausted ladder raises with attempt history", False)
    except ConvergenceError as exc:
        _check("exhausted ladder raises with attempt history",
               exc.report is not None and len(exc.attempts) >= 3
               and exc.iterations is not None)

    print("fault-injected Monte Carlo smoke campaign:")
    bad = sorted({1, 3, args.runs - 1} & set(range(args.runs)))
    config = MonteCarloConfig(
        runs=args.runs, seed=7,
        plan=StimulusPlan(settle=3e-9, hold=2e-9, short=0.8e-9),
        faults=FaultPlan.fail_samples(bad))
    try:
        result = run_monte_carlo("sstvs", 0.8, 1.2, config)
    except Exception as exc:
        _check(f"campaign survives injected sample failures "
               f"({type(exc).__name__} escaped: {exc})", False)
    else:
        _check("campaign survives injected sample failures", True)
        _check("quarantine names exactly the injected indices",
               result.quarantined == bad)
        good = sum(1 for s in result.samples if s.functional)
        expected = good / args.runs
        _check("functional_yield reflects quarantined samples",
               abs(result.functional_yield - expected) < 1e-12
               and result.functional_yield < 1.0)
        print("  " + result.failure_summary().replace("\n", "\n  "))

    if args.cells:
        try:
            _check_cells(_check)
        except Exception as exc:
            _check(f"registry smoke raised {type(exc).__name__}: {exc}",
                   False)

    if args.experiments:
        try:
            _check_experiments(_check)
        except Exception as exc:
            _check(f"experiment smoke raised {type(exc).__name__}: {exc}",
                   False)

    if failures:
        print(f"check FAILED: {len(failures)} problem(s)")
        return 1
    print("check passed: solver runtime contains all injected faults")
    return 0


# -- the table -------------------------------------------------------------

class Command(NamedTuple):
    """One ``repro`` subcommand; ``args`` add its options, in order.

    A campaign names ``spec`` (args -> ExperimentSpec), ``assemble``
    (``"module:function"`` from the engine's ResultSet to the result
    ``render`` takes; None passes the ResultSet) and ``render`` ((args,
    result) -> exit code). Any other command names ``run`` (args ->
    exit code). ``check`` returns a usage error for option combinations
    argparse cannot express.
    """
    help: str
    args: tuple
    spec: Callable | None = None
    assemble: str | None = None
    render: Callable | None = None
    run: Callable | None = None
    check: Callable | None = None


COMMANDS = {
    "characterize": Command(
        "six-metric characterization", (_KINDS, _voltages, _pdk, _campaign),
        _characterize_spec, "repro.core.characterize:kinds_from_resultset",
        _render_characterize),
    "compare": Command(
        "SS-TVS vs combined VS", (_voltages,),
        _compare_spec, "repro.core.characterize:kinds_from_resultset",
        _render_compare),
    "sweep": Command(
        "delay surfaces (Figures 8/9)", (_KIND, _STEP, _pdk, _campaign),
        _sweep_spec, "repro.analysis.sweep:surface_from_resultset",
        _render_sweep),
    "mc": Command(
        "Monte Carlo statistics (Tables 3/4)",
        (_KIND, _voltages, _arg("--runs", type=_positive_int, default=25),
         _arg("--seed", type=int, default=20080310), _pdk, _campaign,
         _backend),
        _mc_spec, "repro.analysis.montecarlo:result_from_resultset",
        _render_mc),
    "functional": Command(
        "full-grid conversion check",
        (_KIND, _STEP, _pdk, _campaign, _backend),
        _functional_spec, "repro.analysis.functional:report_from_resultset",
        lambda args, report: _verdict(report.summary(), report.all_passed)),
    "temp": Command(
        "characterization vs temperature",
        (_KIND, _voltages,
         _arg("--temps", type=_finite_float, nargs="+",
              default=[27.0, 60.0, 90.0],
              help="temperatures [C] (paper: 27 60 90)"),
         _pdk, _campaign),
        _temp_spec, "repro.analysis.temperature:points_from_resultset",
        _render_temp),
    "sens": Command(
        "sizing-knob sensitivities (sstvs)",
        (_KIND, _voltages,
         _arg("--knobs", nargs="+", default=None,
              help="sizing knobs to perturb (default: all)"),
         _pdk, _campaign),
        _sens_spec, "repro.analysis.sensitivity:sensitivities_from_resultset",
        _render_sens),
    "area": Command("cell-area estimates (Figure 7)", (_pdk,),
                    run=cmd_area),
    "liberty": Command(
        "NLDM characterization -> .lib",
        (_KINDS, _voltages, _arg("--output", "-o", default="-"), _pdk,
         _campaign),
        run=cmd_liberty, check=_check_liberty),
    "vtc": Command(
        "DC transfer curve / noise margins",
        (_ONE_KIND, _voltages, _pdk, _campaign),
        _vtc_spec, "repro.analysis.noise_margin:report_from_resultset",
        _render_vtc),
    "pvt": Command(
        "process-corner x temperature report",
        (_KIND, _voltages, _pdk, _campaign),
        _pvt_spec, "repro.analysis.corners:report_from_resultset",
        lambda args, report: _verdict(report.pretty(),
                                      report.all_functional)),
    "floorplan": Command(
        "shifter-assignment floorplan campaign",
        (_arg("--blocks", type=int, default=64,
              help="synthetic design: block count"),
         _arg("--domains", type=int, default=4,
              help="synthetic design: voltage-domain count"),
         _arg("--design-seed", type=int, default=0,
              help="synthetic design: generator seed"),
         _arg("--crossing-factor", type=float, default=1.5,
              help="synthetic design: nets per block"),
         _arg("--verilog", default=None, metavar="FILE",
              help="floorplan a structural Verilog design instead of "
                   "the synthetic generator"),
         _arg("--top", default=None,
              help="Verilog: top module (default: first parsed)"),
         _arg("--domain", action="append", default=[],
              metavar="NAME=VOLTS",
              help="Verilog: declare a voltage domain (repeat)"),
         _arg("--block-domain", action="append", default=[],
              metavar="INSTANCE=DOMAIN",
              help="Verilog: pin an instance to a domain (repeat)"),
         _arg("--strategies", nargs="+",
              default=list(FLOORPLAN_STRATEGIES),
              choices=list(FLOORPLAN_STRATEGIES), metavar="strategy",
              help="shifter strategies to floorplan "
                   f"(default: {' '.join(FLOORPLAN_STRATEGIES)})"),
         _arg("--seed", type=int, default=0,
              help="annealing seed (same seed => bitwise-identical "
                   "floorplan)"),
         _arg("--restarts", type=_positive_int, default=1,
              help="independent annealing restarts per strategy"),
         _arg("--moves", type=_non_negative_int, default=None,
              help="annealing moves (default: scaled to design)"),
         _arg("--required", type=_positive_float, default=2.0,
              help="sign-off required arrival [ns]"),
         _arg("--timing", choices=("synthetic", "spice"),
              default="synthetic",
              help="crossing-path NLDM source: deterministic synthetic "
                   "tables or SPICE characterization"),
         _arg("--leakage", choices=("none", "spice", "leaderboard"),
              default="none",
              help="shifter leakage costing: none, SPICE "
                   "characterization, or the standing leaderboard"),
         _arg("--board", default="LEADERBOARD.json",
              help="leaderboard artifact for --leakage leaderboard"),
         _arg("--require-signoff", action="store_true",
              help="treat an STA violation as a point failure"),
         _pdk, _campaign),
        _floorplan_spec, None, _render_floorplan, check=_check_floorplan),
    "runs": Command("list stored experiment runs", (_STORE_ROOT,),
                    run=cmd_runs),
    "show": Command(
        "inspect one stored experiment run",
        (_arg("run_id"), _STORE_ROOT,
         _arg("--limit", type=_non_negative_int, default=20,
              help="rows to print (0 = all)")),
        run=cmd_show),
    "serve": Command(
        "supervised campaign job service",
        (_arg("--jobs", required=True, metavar="DIR",
              help="job drop directory (*.json job files)"),
         _STORE_ROOT,
         _arg("--cache", default=None, metavar="DIR",
              help="content-addressed solve cache root"),
         _arg("--once", action="store_true",
              help="drain the directory and exit instead of polling "
                   "until SIGTERM"),
         _workers("concurrent worker processes"),
         _arg("--chunk-size", type=_positive_int, default=4,
              help="points per worker chunk"),
         _arg("--heartbeat", type=_positive_float, default=30.0,
              help="seconds without worker progress before the "
                   "watchdog kills and requeues it"),
         _arg("--poll", type=_positive_float, default=0.5,
              help="job-directory poll interval [s]")),
        run=cmd_serve),
    "cache": Command(
        "inspect a solve cache",
        (_arg("action", choices=("stats", "verify", "clear")),
         _arg("--root", default="cache", metavar="DIR",
              help="cache root directory (default: cache)")),
        run=cmd_cache),
    "bench": Command(
        "cell x node x corner leaderboard",
        (_arg("--leaderboard", action="store_true", required=True,
              help="characterize every registered cell on every "
                   "registered PDK node at every process corner and "
                   "write the standing leaderboard artifact"),
         _arg("--out", "--output", "-o", dest="out",
              default="LEADERBOARD.json",
              help="artifact path (default: LEADERBOARD.json)"),
         _leaderboard_filters,
         _workers("process-pool width, one point per task; 1 runs "
                  "serially in-process")),
        run=cmd_bench),
    "check": Command(
        "fault-injected solver self-test",
        (_arg("--runs", type=_positive_int, default=6,
              help="smoke-campaign sample count"),
         _arg("--cells", action="store_true",
              help="also smoke-test the cell & PDK registries: "
                   "characterize every registered cell on every "
                   "registered node at its canonical pair"),
         _arg("--experiments", action="store_true",
              help="also smoke-test the experiment engine and artifact "
                   "store (persist, reload, resume)")),
        run=cmd_check),
    "trace": Command(
        "convergence summary of a traced run",
        (_arg("run_id"), _STORE_ROOT,
         _arg("--limit", type=_non_negative_int, default=10,
              help="outlier rows to print")),
        run=cmd_trace),
    "vcd": Command(
        "dump a characterization transient",
        (_ONE_KIND, _voltages, _pdk,
         _arg("--output", "-o", default="shifter.vcd")),
        run=cmd_vcd),
}


def _dispatch(command: Command, usage_error, args) -> int:
    problem = command.check(args) if command.check else None
    if problem:
        usage_error(problem)
    if command.run is not None:
        return command.run(args)
    return _run_campaign(command, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SS-TVS reproduction (DATE 2008) command line")
    parser.add_argument("--temp", type=_finite_float, default=27.0,
                        help="temperature [C]")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for add in command.args:
            add(p)
        p.set_defaults(func=partial(_dispatch, command, p.error))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout went away (e.g. piped into head); exit quietly, and
        # redirect the fd so interpreter shutdown doesn't re-raise.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
