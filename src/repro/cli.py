"""Command-line interface: ``python -m repro <command> ...``.

Commands map one-to-one onto the library's experiment entry points:

* ``characterize`` — the six Table-1/2 metrics for one or more kinds;
* ``compare`` — SS-TVS vs combined VS side by side;
* ``sweep`` — Figures 8/9 delay surfaces as text;
* ``mc`` — Monte Carlo statistics (Tables 3/4);
* ``functional`` — the full-grid conversion check;
* ``temp`` — nominal characterization at the paper's temperatures;
* ``sens`` — finite-difference sizing sensitivities;
* ``area`` — Figure 7 cell-area estimates;
* ``liberty`` — NLDM characterization to a .lib-like file;
* ``vtc`` — DC transfer curve / noise margins;
* ``pvt`` — process-corner x temperature report;
* ``bench --leaderboard`` — characterize every registered cell x PDK
  node x corner into LEADERBOARD.json, one engine point per corner
  entry and per min-VDDI scan, over ``--workers`` processes (campaign
  timing lives in ``python3 benchmarks/perf/run.py``);
* ``floorplan`` — shifter-assignment floorplan campaign: synthesize or
  bridge a multi-voltage design, assign a registered shifter cell to
  every domain crossing per strategy, anneal a sequence-pair
  floorplan, and sign every incumbent off through the NLDM STA
  engine;
* ``check`` — fault-injected self-test of the resilient solver runtime
  (``--cells`` smokes the cell & PDK registries, ``--experiments``
  adds an engine/artifact-store smoke test; the test batteries run
  under ``pytest -m golden|batch|chaos|floorplan``);

Cell kinds and PDK nodes come from the live registries
(:mod:`repro.cells.registry`, :mod:`repro.pdk.registry`): a topology
or node registered at import time is immediately addressable from
every subcommand, and unknown names fail listing what *is* registered.
* ``serve`` — supervised campaign job service over a drop directory
  (durable journal, worker watchdog, crash requeue, SIGTERM-clean);
* ``cache`` — inspect/verify/clear a content-addressed solve cache;
* ``runs`` / ``show`` — list and inspect stored experiment runs;
* ``trace`` — convergence summary + outlier report of a traced run;
* ``vcd`` — dump a characterization transient as VCD.

Every campaign subcommand is a thin spec builder over the unified
experiment engine (:mod:`repro.runtime.experiment`) and shares these
flags: ``--workers N`` distributes samples over a process pool
(results identical to a serial run; the default is every CPU the
process may run on, and ``--workers 1`` runs serially in-process),
``--out DIR`` persists the run as ``DIR/<run-id>/manifest.json`` +
``rows.jsonl`` with full provenance, ``--resume RUN-ID`` reloads a
stored (possibly partial) run and computes only the missing points,
and ``--trace`` / ``--profile`` record per-point solver telemetry into
the manifest's ``repro-trace-v1`` section (rendered by
``repro trace <run-id>``).
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.cells.registry import FLOORPLAN_STRATEGIES, cell_names
from repro.core.metrics import METRIC_FIELDS, METRIC_LABELS, METRIC_UNITS
from repro.pdk.corners import CORNER_SHIFTS
from repro.pdk.registry import node_names
from repro.runtime.parallel import usable_cpus
from repro.units import format_eng


def _add_voltage_args(parser) -> None:
    parser.add_argument("--vddi", type=float, default=0.8,
                        help="input-domain supply [V]")
    parser.add_argument("--vddo", type=float, default=1.2,
                        help="output-domain supply [V]")


def _add_pdk_arg(parser) -> None:
    parser.add_argument("--pdk", default="ptm90", choices=node_names(),
                        help="registered PDK node to run on (choices "
                             "come from the live node registry; see "
                             "README 'Cell & PDK zoo')")


def _add_backend_arg(parser) -> None:
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


def _positive_float(text: str) -> float:
    """argparse type for a finite value above 0 (exit 2 otherwise)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number, got {text!r}")
    return value


def _add_workers_arg(parser, help_text: str) -> None:
    parser.add_argument("--workers", type=_positive_int,
                        default=usable_cpus(),
                        help=f"{help_text} (default: %(default)s, the "
                             f"CPUs this process may run on)")


def _add_campaign_args(parser) -> None:
    """The shared campaign flags: --workers / --out / --resume / --trace."""
    _add_workers_arg(parser, "process-pool width, one point or lane "
                             "group per task; 1 runs in-process")
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


def _campaign_io(args):
    """Resolve the shared flags into (store, resume, run_id, cache)."""
    from repro.runtime import telemetry
    from repro.runtime.cache import SolveCache
    from repro.runtime.experiment import ArtifactStore, DEFAULT_ROOT
    mode = None
    if args.profile:
        mode = "profile"
    elif args.trace:
        mode = "collect"
    if mode is not None:
        telemetry.set_campaign_trace_mode(mode)
    store = resume = None
    if args.out or args.resume or mode is not None:
        store = ArtifactStore(args.out or DEFAULT_ROOT)
    if args.resume:
        resume = store.load(args.resume)
    cache = None
    if args.cache:
        cache = SolveCache(args.cache)
    return store, resume, args.resume, cache


def _report_run(result) -> None:
    run_id = getattr(result, "run_id", None)
    if run_id:
        print(f"stored run: {run_id}")


def _print_metrics(metrics, title: str) -> None:
    print(metrics.pretty(title))


def cmd_characterize(args) -> int:
    from repro.core.characterize import characterize_kinds
    from repro.pdk import make_pdk
    store, resume, run_id, cache = _campaign_io(args)
    results = characterize_kinds(args.kinds, args.vddi, args.vddo,
                                 pdk=make_pdk(args.pdk, args.temp),
                                 workers=args.workers, resume=resume,
                                 store=store, run_id=run_id, cache=cache)
    for kind, metrics in results.items():
        _print_metrics(metrics, f"{kind} [{args.pdk}]: {args.vddi} V -> "
                                f"{args.vddo} V @ {args.temp} C")
    if store is not None and store.list_runs():
        print(f"stored run under {store.root}")
    return 0 if all(m.functional for m in results.values()) else 1


def cmd_compare(args) -> int:
    from repro.core.characterize import characterize_kinds
    results = characterize_kinds(("sstvs", "combined"), args.vddi,
                                 args.vddo)
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


def cmd_sweep(args) -> int:
    from repro.analysis import (
        SweepGrid, render_surface_ascii, sweep_delay_surface,
    )
    from repro.pdk import make_pdk
    store, resume, run_id, cache = _campaign_io(args)
    surface = sweep_delay_surface(args.kind,
                                  SweepGrid.with_step(args.step),
                                  pdk=make_pdk(args.pdk, args.temp),
                                  workers=args.workers, resume=resume,
                                  store=store, run_id=run_id, cache=cache)
    print("Rising delay [ps]:")
    print(render_surface_ascii(surface, "rise"))
    print("\nFalling delay [ps]:")
    print(render_surface_ascii(surface, "fall"))
    print(f"\nfunctional fraction: {surface.functional_fraction:.3f}")
    _report_run(surface)
    return 0 if surface.functional_fraction == 1.0 else 1


def cmd_mc(args) -> int:
    from repro.analysis import MonteCarloConfig, run_monte_carlo
    store, resume, run_id, cache = _campaign_io(args)
    config = MonteCarloConfig(runs=args.runs, seed=args.seed,
                              temperature_c=args.temp,
                              workers=args.workers,
                              backend=args.backend,
                              solver=args.solver,
                              pdk_node=args.pdk)
    result = run_monte_carlo(args.kind, args.vddi, args.vddo, config,
                             resume=resume, store=store, run_id=run_id,
                             cache=cache)
    title = (f"{args.kind} MC, {args.vddi} -> {args.vddo} V, "
             f"{args.runs} runs, {args.temp} C")
    if result.statistics is not None:
        print(result.statistics.pretty(title))
    else:
        print(f"{title}\n  no successful samples")
    if result.failures or result.interrupted:
        print(result.failure_summary())
    _report_run(result)
    return 0 if result.functional_yield == 1.0 else 1


def cmd_functional(args) -> int:
    from repro.analysis import SweepGrid, validate_functionality
    from repro.pdk import make_pdk
    store, resume, run_id, cache = _campaign_io(args)
    report = validate_functionality(args.kind,
                                    SweepGrid.with_step(args.step),
                                    pdk=make_pdk(args.pdk, args.temp),
                                    workers=args.workers,
                                    backend=args.backend,
                                    solver=args.solver,
                                    resume=resume,
                                    store=store, run_id=run_id,
                                    cache=cache)
    print(report.summary())
    _report_run(report)
    return 0 if report.all_passed else 1


def cmd_temp(args) -> int:
    from repro.analysis import sweep_temperature
    store, resume, run_id, cache = _campaign_io(args)
    points = sweep_temperature(args.kind, args.vddi, args.vddo,
                               temperatures=tuple(args.temps),
                               workers=args.workers, resume=resume,
                               store=store, run_id=run_id, cache=cache,
                               pdk_node=args.pdk)
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


def cmd_sens(args) -> int:
    from repro.analysis import (
        SIZING_KNOBS, metric_sensitivities, render_sensitivity_table,
    )
    from repro.pdk import make_pdk
    store, resume, run_id, cache = _campaign_io(args)
    knobs = tuple(args.knobs) if args.knobs else SIZING_KNOBS
    sensitivities = metric_sensitivities(
        args.kind, args.vddi, args.vddo, knobs=knobs,
        pdk=make_pdk(args.pdk, args.temp),
        workers=args.workers, resume=resume, store=store, run_id=run_id,
        cache=cache)
    print(render_sensitivity_table(sensitivities))
    return 0


def cmd_area(args) -> int:
    from repro.cells.registry import get_cell
    from repro.layout import estimate_cell_area
    from repro.pdk import make_pdk
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


def cmd_liberty(args) -> int:
    from repro.core.libchar import characterize_cell, write_liberty
    from repro.pdk import make_pdk
    store, _, _, cache = _campaign_io(args)
    cells = [characterize_cell(kind, make_pdk(args.pdk, args.temp),
                               args.vddi, args.vddo, workers=args.workers,
                               store=store, cache=cache)
             for kind in args.kinds]
    text = write_liberty(cells)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({len(cells)} cells)")
    return 0


def cmd_vtc(args) -> int:
    from repro.analysis import vtc_report
    from repro.pdk import make_pdk
    store, resume, run_id, cache = _campaign_io(args)
    report = vtc_report(args.kind, pairs=((args.vddi, args.vddo),),
                        pdk=make_pdk(args.pdk, args.temp),
                        workers=args.workers, resume=resume,
                        store=store, run_id=run_id, cache=cache)
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
    _report_run(report)
    return 0


def cmd_pvt(args) -> int:
    from repro.analysis import pvt_report
    store, resume, run_id, cache = _campaign_io(args)
    report = pvt_report(args.kind, args.vddi, args.vddo,
                        workers=args.workers, resume=resume,
                        store=store, run_id=run_id, cache=cache,
                        pdk_node=args.pdk)
    print(report.pretty())
    _report_run(report)
    return 0 if report.all_functional else 1


def _floorplan_design(args):
    """Resolve a bridged Verilog design, or None for the generator."""
    if not args.verilog:
        return None
    from repro.errors import AnalysisError
    from repro.floorplan import design_from_verilog
    from repro.verilog import parse_verilog
    with open(args.verilog) as handle:
        modules = parse_verilog(handle.read())
    if args.top:
        try:
            module = modules[args.top]
        except KeyError:
            raise AnalysisError(
                f"no module {args.top!r} in {args.verilog} "
                f"(have {sorted(modules)})") from None
    else:
        module = next(iter(modules.values()))
    domains = {}
    for entry in args.domain:
        name, _, volts = entry.partition("=")
        if not volts:
            raise AnalysisError(
                f"--domain wants NAME=VOLTS, got {entry!r}")
        domains[name] = float(volts)
    block_domains = {}
    for entry in args.block_domain:
        inst, _, domain = entry.partition("=")
        if not domain:
            raise AnalysisError(
                f"--block-domain wants INSTANCE=DOMAIN, got {entry!r}")
        block_domains[inst] = domain
    return design_from_verilog(module, block_domains, domains)


def cmd_floorplan(args) -> int:
    """Shifter-assignment floorplan campaign with STA sign-off."""
    from repro.floorplan import (
        best_by_strategy, floorplan_spec, leaderboard_leakage,
        run_floorplan_campaign,
    )
    if not args.verilog:
        # Reject a synthetic design the generator cannot build before
        # a run is stored in which every point fails.
        if args.blocks < 2:
            args.usage_error(f"--blocks must be at least 2, got "
                             f"{args.blocks}")
        if not 2 <= args.domains <= args.blocks:
            args.usage_error(f"--domains must be in [2, --blocks="
                             f"{args.blocks}], got {args.domains}")
        if not (math.isfinite(args.crossing_factor)
                and args.crossing_factor >= 0):
            args.usage_error(f"--crossing-factor must be finite and "
                             f">= 0, got {args.crossing_factor}")
    if not (math.isfinite(args.required) and args.required > 0):
        args.usage_error(f"--required must be finite and positive, got "
                         f"{args.required}")
    store, resume, run_id, cache = _campaign_io(args)
    design = _floorplan_design(args)
    leakage = args.leakage
    if leakage == "leaderboard":
        from repro.analysis.leaderboard import load_leaderboard
        leakage = leaderboard_leakage(load_leaderboard(args.board),
                                      args.pdk)
    spec = floorplan_spec(
        design=design, blocks=args.blocks, domains=args.domains,
        design_seed=args.design_seed,
        crossing_factor=args.crossing_factor,
        strategies=tuple(args.strategies), seed=args.seed,
        restarts=args.restarts, moves=args.moves,
        required=args.required * 1e-9, timing=args.timing,
        node=args.pdk, leakage=leakage,
        require_signoff=args.require_signoff, workers=args.workers)
    result = run_floorplan_campaign(spec, resume=resume, store=store,
                                    run_id=run_id, cache=cache)
    print(f"floorplan campaign [{args.pdk}]: "
          f"{spec.metadata['blocks']} blocks, "
          f"{spec.metadata['moves']} moves/anneal, required "
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
    _report_run(result)
    failures = result.counts["err"]
    return 0 if failures == 0 and not result.interrupted else 1


def cmd_runs(args) -> int:
    """List stored experiment runs (``results/<run-id>/``)."""
    from repro.runtime.experiment import ArtifactStore, DEFAULT_ROOT
    store = ArtifactStore(args.out or DEFAULT_ROOT)
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
    from repro.runtime.experiment import ArtifactStore, DEFAULT_ROOT
    store = ArtifactStore(args.out or DEFAULT_ROOT)
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
    from repro.runtime.experiment import ArtifactStore, DEFAULT_ROOT
    from repro.runtime.telemetry import render_trace
    store = ArtifactStore(args.out or DEFAULT_ROOT)
    manifest = store.manifest(args.run_id)
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
    from repro.pdk import make_pdk
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
    from repro.runtime.experiment import ArtifactStore, DEFAULT_ROOT
    from repro.runtime.service import ServiceConfig, serve_jobs
    config = ServiceConfig(workers=args.workers,
                           chunk_size=args.chunk_size,
                           heartbeat_timeout_s=args.heartbeat)
    store = ArtifactStore(args.out or DEFAULT_ROOT)
    processed = serve_jobs(args.jobs, store, cache=args.cache,
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
    from repro.pdk.registry import get_node, make_pdk
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
    wrong. ``--experiments`` adds an engine/artifact-store round-trip
    (persist, reload, truncate, resume).
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SS-TVS reproduction (DATE 2008) command line")
    parser.add_argument("--temp", type=float, default=27.0,
                        help="temperature [C]")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="six-metric characterization")
    p.add_argument("kinds", nargs="+", choices=cell_names(),
                   metavar="kind")
    _add_voltage_args(p)
    _add_pdk_arg(p)
    _add_campaign_args(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("compare", help="SS-TVS vs combined VS")
    _add_voltage_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="delay surfaces (Figures 8/9)")
    p.add_argument("kind", nargs="?", default="sstvs",
                   choices=cell_names(), metavar="kind")
    p.add_argument("--step", type=_positive_float, default=0.2)
    _add_pdk_arg(p)
    _add_campaign_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mc", help="Monte Carlo statistics (Tables 3/4)")
    p.add_argument("kind", nargs="?", default="sstvs",
                   choices=cell_names(), metavar="kind")
    _add_voltage_args(p)
    p.add_argument("--runs", type=_positive_int, default=25)
    p.add_argument("--seed", type=int, default=20080310)
    _add_pdk_arg(p)
    _add_campaign_args(p)
    _add_backend_arg(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("functional", help="full-grid conversion check")
    p.add_argument("kind", nargs="?", default="sstvs",
                   choices=cell_names(), metavar="kind")
    p.add_argument("--step", type=_positive_float, default=0.2)
    _add_pdk_arg(p)
    _add_campaign_args(p)
    _add_backend_arg(p)
    p.set_defaults(func=cmd_functional)

    p = sub.add_parser("temp", help="characterization vs temperature")
    p.add_argument("kind", nargs="?", default="sstvs",
                   choices=cell_names(), metavar="kind")
    _add_voltage_args(p)
    p.add_argument("--temps", type=float, nargs="+",
                   default=[27.0, 60.0, 90.0],
                   help="temperatures [C] (paper: 27 60 90)")
    _add_pdk_arg(p)
    _add_campaign_args(p)
    p.set_defaults(func=cmd_temp)

    p = sub.add_parser("sens", help="sizing-knob sensitivities (sstvs)")
    p.add_argument("kind", nargs="?", default="sstvs",
                   choices=cell_names(), metavar="kind")
    _add_voltage_args(p)
    p.add_argument("--knobs", nargs="+", default=None,
                   help="sizing knobs to perturb (default: all)")
    _add_pdk_arg(p)
    _add_campaign_args(p)
    p.set_defaults(func=cmd_sens)

    p = sub.add_parser("area", help="cell-area estimates (Figure 7)")
    _add_pdk_arg(p)
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("liberty", help="NLDM characterization -> .lib")
    p.add_argument("kinds", nargs="+", choices=cell_names(),
                   metavar="kind")
    _add_voltage_args(p)
    p.add_argument("--output", "-o", default="-")
    _add_pdk_arg(p)
    _add_campaign_args(p)
    p.set_defaults(func=cmd_liberty)

    p = sub.add_parser("vtc", help="DC transfer curve / noise margins")
    p.add_argument("kind", choices=cell_names(), metavar="kind")
    _add_voltage_args(p)
    _add_pdk_arg(p)
    _add_campaign_args(p)
    p.set_defaults(func=cmd_vtc)

    p = sub.add_parser("pvt", help="process-corner x temperature report")
    p.add_argument("kind", nargs="?", default="sstvs",
                   choices=cell_names(), metavar="kind")
    _add_voltage_args(p)
    _add_pdk_arg(p)
    _add_campaign_args(p)
    p.set_defaults(func=cmd_pvt)

    p = sub.add_parser("floorplan",
                       help="shifter-assignment floorplan campaign")
    p.add_argument("--blocks", type=int, default=64,
                   help="synthetic design: block count")
    p.add_argument("--domains", type=int, default=4,
                   help="synthetic design: voltage-domain count")
    p.add_argument("--design-seed", type=int, default=0,
                   help="synthetic design: generator seed")
    p.add_argument("--crossing-factor", type=float, default=1.5,
                   help="synthetic design: nets per block")
    p.add_argument("--verilog", default=None, metavar="FILE",
                   help="floorplan a structural Verilog design instead "
                        "of the synthetic generator")
    p.add_argument("--top", default=None,
                   help="Verilog: top module (default: first parsed)")
    p.add_argument("--domain", action="append", default=[],
                   metavar="NAME=VOLTS",
                   help="Verilog: declare a voltage domain (repeat)")
    p.add_argument("--block-domain", action="append", default=[],
                   metavar="INSTANCE=DOMAIN",
                   help="Verilog: pin an instance to a domain (repeat)")
    p.add_argument("--strategies", nargs="+",
                   default=list(FLOORPLAN_STRATEGIES),
                   choices=list(FLOORPLAN_STRATEGIES), metavar="strategy",
                   help="shifter strategies to floorplan "
                        f"(default: {' '.join(FLOORPLAN_STRATEGIES)})")
    p.add_argument("--seed", type=int, default=0,
                   help="annealing seed (same seed => bitwise-identical "
                        "floorplan)")
    p.add_argument("--restarts", type=_positive_int, default=1,
                   help="independent annealing restarts per strategy")
    p.add_argument("--moves", type=_non_negative_int, default=None,
                   help="annealing moves (default: scaled to design)")
    p.add_argument("--required", type=float, default=2.0,
                   help="sign-off required arrival [ns]")
    p.add_argument("--timing", choices=("synthetic", "spice"),
                   default="synthetic",
                   help="crossing-path NLDM source: deterministic "
                        "synthetic tables or SPICE characterization")
    p.add_argument("--leakage", choices=("none", "spice", "leaderboard"),
                   default="none",
                   help="shifter leakage costing: none, SPICE "
                        "characterization, or the standing leaderboard")
    p.add_argument("--board", default="LEADERBOARD.json",
                   help="leaderboard artifact for --leakage leaderboard")
    p.add_argument("--require-signoff", action="store_true",
                   help="treat an STA violation as a point failure")
    _add_pdk_arg(p)
    _add_campaign_args(p)
    p.set_defaults(func=cmd_floorplan, usage_error=p.error)

    p = sub.add_parser("runs", help="list stored experiment runs")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="artifact-store root (default: results)")
    p.set_defaults(func=cmd_runs)

    p = sub.add_parser("show", help="inspect one stored experiment run")
    p.add_argument("run_id")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="artifact-store root (default: results)")
    p.add_argument("--limit", type=_non_negative_int, default=20,
                   help="rows to print (0 = all)")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("serve", help="supervised campaign job service")
    p.add_argument("--jobs", required=True, metavar="DIR",
                   help="job drop directory (*.json job files)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="artifact-store root (default: results)")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="content-addressed solve cache root")
    p.add_argument("--once", action="store_true",
                   help="drain the directory and exit instead of "
                        "polling until SIGTERM")
    _add_workers_arg(p, "concurrent worker processes")
    p.add_argument("--chunk-size", type=_positive_int, default=4,
                   help="points per worker chunk")
    p.add_argument("--heartbeat", type=float, default=30.0,
                   help="seconds without worker progress before the "
                        "watchdog kills and requeues it")
    p.add_argument("--poll", type=float, default=0.5,
                   help="job-directory poll interval [s]")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("cache", help="inspect a solve cache")
    p.add_argument("action", choices=("stats", "verify", "clear"))
    p.add_argument("--root", default="cache", metavar="DIR",
                   help="cache root directory (default: cache)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("bench", help="cell x node x corner leaderboard")
    p.add_argument("--leaderboard", action="store_true", required=True,
                   help="characterize every registered cell on every "
                        "registered PDK node at every process corner "
                        "and write the standing leaderboard artifact")
    p.add_argument("--out", "--output", "-o", dest="out",
                   default="LEADERBOARD.json",
                   help="artifact path (default: LEADERBOARD.json)")
    p.add_argument("--cells", nargs="+", default=None,
                   choices=cell_names(), metavar="cell",
                   help="leaderboard: restrict to these cells")
    p.add_argument("--nodes", nargs="+", default=None,
                   choices=node_names(), metavar="node",
                   help="leaderboard: restrict to these PDK nodes")
    p.add_argument("--corners", nargs="+", default=None,
                   choices=tuple(CORNER_SHIFTS), metavar="corner",
                   help="leaderboard: restrict to these corners "
                        "(default: all)")
    _add_workers_arg(p, "process-pool width, one point per task; "
                        "1 runs serially in-process")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("check", help="fault-injected solver self-test")
    p.add_argument("--runs", type=_positive_int, default=6,
                   help="smoke-campaign sample count")
    p.add_argument("--cells", action="store_true",
                   help="also smoke-test the cell & PDK registries: "
                        "characterize every registered cell on every "
                        "registered node at its canonical pair")
    p.add_argument("--experiments", action="store_true",
                   help="also smoke-test the experiment engine and "
                        "artifact store (persist, reload, resume)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("trace", help="convergence summary of a traced run")
    p.add_argument("run_id")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="artifact-store root (default: results)")
    p.add_argument("--limit", type=_non_negative_int, default=10,
                   help="outlier rows to print")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("vcd", help="dump a characterization transient")
    p.add_argument("kind", choices=cell_names(), metavar="kind")
    _add_voltage_args(p)
    _add_pdk_arg(p)
    p.add_argument("--output", "-o", default="shifter.vcd")
    p.set_defaults(func=cmd_vcd)

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
