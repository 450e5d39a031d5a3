"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``designs`` — list every available design (paper, ablation, extension).
- ``run`` — run one (design, workload) cell and print its metrics.
- ``compare`` — run all designs on one workload, normalized table.
- ``figure`` — regenerate one paper table/figure by name.
- ``overhead`` — print Table I for the current configuration.
- ``fault-sweep`` — enumerate crash points and verify recovery at each.
- ``trace`` — run one cell with event tracing, export a Chrome trace.
- ``profile`` — run one cell under the host-side phase profiler.
- ``traffic`` — open-loop offered-load sweeps: Poisson/bursty arrivals,
  multi-tenant workload mixes, bounded admission queues; reports
  p50/p99/p999 commit latency (queueing included), goodput and the
  overload knee, with optional BenchRecord emission and a
  crash-under-load recovery curve.
- ``bench`` — the benchmark observatory: ``record`` a cell as typed
  BenchRecords, ``compare`` two trajectory points, ``gate`` a run
  against the committed baseline (non-zero exit on regression), and
  ``report`` the markdown dashboard with the paper-fidelity scorecard.
"""

import argparse
import os
import sys

from repro.analysis.report import format_table
from repro.core.designs import DESIGN_NAMES, available_designs, make_system

ALL_DESIGNS = available_designs(include_ablation=True, include_extensions=True)

#: Aliases the trace/profile verbs accept on top of the full design
#: names: the fault-sweep scheme aliases plus "undo-redo" for the
#: morphable undo+redo design (MorLog is the only logger with the
#: ULog/URLog word states the timeline view is about).
TRACE_DESIGN_ALIASES = {
    "morlog": "MorLog-SLDE",
    "morlog-dp": "MorLog-DP",
    "fwb": "FWB-CRADE",
    "undo-only": "Undo-CRADE",
    "redo-only": "Redo-CRADE",
    "undo-redo": "MorLog-SLDE",
    "incll": "InCLL-CRADE",
    "paging": "CoW-Page",
    "ckpt-undo": "Ckpt-Undo",
}


def _resolve_trace_design(name: str) -> str:
    full = TRACE_DESIGN_ALIASES.get(name.lower(), name)
    if full not in ALL_DESIGNS:
        raise SystemExit(
            "unknown design %r (designs: %s; aliases: %s)"
            % (name, ", ".join(ALL_DESIGNS),
               ", ".join(sorted(TRACE_DESIGN_ALIASES)))
        )
    return full
from repro.experiments import figures
from repro.experiments.runner import ExperimentScale, default_config, run_design
from repro.workloads.base import DatasetSize, MACRO_WORKLOADS, MICRO_WORKLOADS

FIGURES = {
    "fig3": lambda scale: figures.fig3_table(figures.fig3_write_distance(scale)),
    "fig5": lambda scale: figures.fig5_table(figures.fig5_clean_bytes(scale)),
    "table1": lambda scale: format_table(
        ["component", "value"],
        [[k, v] for k, v in figures.table1_overheads().items()],
        "Table I + SLDE overheads",
    ),
    "table2": lambda scale: figures.table2_table(figures.table2_patterns(scale)),
    "fig12a": lambda scale: figures.normalized_table(
        figures.fig12_micro_throughput(DatasetSize.SMALL, scale)[1],
        "Figure 12(a): micro throughput, small dataset",
    ),
    "fig12b": lambda scale: figures.normalized_table(
        figures.fig12_micro_throughput(DatasetSize.LARGE, scale)[1],
        "Figure 12(b): micro throughput, large dataset",
    ),
    "fig13": lambda scale: figures.normalized_table(
        figures.fig13_write_traffic(DatasetSize.SMALL, scale)[1],
        "Figure 13: NVMM write traffic, small dataset",
    ),
    "fig14": lambda scale: figures.normalized_table(
        figures.fig14_macro_throughput(scale),
        "Figure 14: macro throughput",
    ),
    "fig12x": lambda scale: figures.normalized_table(
        figures.fig12x_extension_throughput(DatasetSize.SMALL, scale)[1],
        "Figure 12 extended: micro throughput incl. extension designs",
    ),
    "fig13x": lambda scale: figures.normalized_table(
        figures.fig13x_extension_write_traffic(DatasetSize.SMALL, scale)[1],
        "Figure 13 extended: NVMM write traffic incl. extension designs",
    ),
    "ext-latency": lambda scale: figures.extension_latency_table(
        figures.extension_commit_latency(scale)
    ),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="MorLog (ISCA 2020) reproduction harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("designs", help="list the evaluated designs")

    run_p = sub.add_parser("run", help="run one design on one workload")
    run_p.add_argument("--design", default="MorLog-SLDE", choices=ALL_DESIGNS)
    run_p.add_argument(
        "--workload",
        default="echo",
        # "mix" is the default 70/20/10 traffic blend run closed-loop;
        # grid/figure stay micro+macro so figure grids keep their shape.
        choices=MICRO_WORKLOADS + MACRO_WORKLOADS + ("mix",),
    )
    run_p.add_argument("--transactions", type=int, default=200)
    run_p.add_argument("--threads", type=int, default=4)
    run_p.add_argument("--large", action="store_true", help="4 KB dataset items")

    grid_p = sub.add_parser(
        "grid",
        help="run a design x workload grid in parallel with result caching",
    )
    grid_p.add_argument(
        "--designs",
        default=",".join(DESIGN_NAMES),
        help="comma-separated design names, or 'all' (default: the six"
        " evaluated designs)",
    )
    grid_p.add_argument(
        "--workloads",
        default="micro",
        help="comma-separated workload names, or 'micro'/'macro'",
    )
    grid_p.add_argument("--large", action="store_true", help="4 KB dataset items")
    grid_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: all CPU cores)",
    )
    grid_p.add_argument(
        "--no-cache",
        action="store_true",
        help="always re-simulate (skip the result cache)",
    )
    grid_p.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: REPRO_CACHE_DIR or"
        " ~/.cache/morlog-repro/grid)",
    )
    grid_p.add_argument(
        "--transactions", type=int, default=None,
        help="override per-cell transaction count",
    )
    grid_p.add_argument(
        "--threads", type=int, default=None,
        help="override per-cell thread count",
    )
    grid_p.add_argument(
        "--timing", action="store_true", help="print the per-cell timing table"
    )
    grid_p.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="also write a Chrome trace per simulated cell into DIR"
        " (cached cells record whether their artifact already exists)",
    )
    grid_p.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write the sweep's shard manifest to PATH before execution"
        " (enables 'repro grid --resume PATH' and streams progress to"
        " PATH.progress.jsonl)",
    )
    grid_p.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume a sweep from its manifest: only cells the result"
        " cache does not hold are simulated (exactly-once); the grid"
        " shape comes from the manifest, not --designs/--workloads",
    )
    grid_p.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count recorded in the manifest (default: --jobs)",
    )
    grid_p.add_argument(
        "--retries",
        type=int,
        default=1,
        help="re-submissions per cell after a worker exception or timeout"
        " (default: 1)",
    )
    grid_p.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        dest="cell_timeout",
        help="per-cell attempt deadline; a cell still running past it is"
        " abandoned (fail-soft) — needs --jobs >= 2",
    )
    grid_p.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the sweep on the first cell failure instead of"
        " recording it and completing the rest",
    )
    grid_p.add_argument(
        "--figures-dir",
        default=None,
        metavar="DIR",
        dest="figures_dir",
        help="also emit the grid throughput figure as Vega-Lite JSON +"
        " CSV into DIR",
    )
    grid_p.add_argument(
        "--bench",
        action="store_true",
        help="append sweep-shape records to the bench observatory",
    )
    grid_p.add_argument(
        "--bench-dir",
        default=None,
        help="observatory root (default: benchmarks/results/runs)",
    )
    # Deterministic mid-flight kill for the kill-and-resume smoke tests:
    # raises KeyboardInterrupt after N cells have streamed to the cache.
    grid_p.add_argument(
        "--interrupt-after", type=int, default=None, help=argparse.SUPPRESS
    )

    cmp_p = sub.add_parser("compare", help="all designs on one workload")
    cmp_p.add_argument(
        "--workload",
        default="echo",
        choices=MICRO_WORKLOADS + MACRO_WORKLOADS,
    )
    cmp_p.add_argument("--transactions", type=int, default=200)
    cmp_p.add_argument("--threads", type=int, default=4)

    fig_p = sub.add_parser("figure", help="regenerate one paper table/figure")
    fig_p.add_argument("name", choices=sorted(FIGURES))
    fig_p.add_argument(
        "--fast", action="store_true", help="quarter-scale transaction counts"
    )

    sub.add_parser("overhead", help="print Table I")

    rec_p = sub.add_parser(
        "record", help="record a workload's store stream into a trace"
    )
    rec_p.add_argument("out", help="output trace container (.mltr)")
    rec_p.add_argument(
        "--workload",
        default="queue",
        choices=MICRO_WORKLOADS + MACRO_WORKLOADS,
    )
    rec_p.add_argument("--design", default="MorLog-SLDE", choices=ALL_DESIGNS)
    rec_p.add_argument("--transactions", type=int, default=100)
    rec_p.add_argument("--threads", type=int, default=2)

    rep_p = sub.add_parser(
        "replay", help="replay a recorded trace under any design"
    )
    rep_p.add_argument("trace", help="trace container to replay")
    rep_p.add_argument("--design", default="MorLog-SLDE", choices=ALL_DESIGNS)

    fs_p = sub.add_parser(
        "fault-sweep",
        help="crash at every persist boundary and verify recovery",
    )
    fs_p.add_argument(
        "--design",
        default="all",
        help="design name, alias (morlog/undo-only/redo-only/fwb/morlog-dp)"
        " or 'all' for the four logging schemes",
    )
    fs_p.add_argument(
        "--workload",
        default="hash",
        choices=MICRO_WORKLOADS + MACRO_WORKLOADS,
    )
    fs_p.add_argument("--transactions", type=int, default=10)
    fs_p.add_argument("--threads", type=int, default=2)
    fs_p.add_argument("--seed", type=int, default=7)
    fs_p.add_argument(
        "--budget",
        type=int,
        default=0,
        help="crash points to sample (0 = exhaustive, check every one)",
    )
    fs_p.add_argument(
        "--fwb-interval",
        type=int,
        default=None,
        help="override the FWB scan interval (cycles); small values reach"
        " the scan/truncation crash points in short runs",
    )
    fs_p.add_argument(
        "--mutant",
        default=None,
        help="install a deliberately broken logger first (the sweep must"
        " then FAIL with a counterexample)",
    )
    fs_p.add_argument(
        "--no-verify-decode",
        action="store_true",
        help="skip codec decode verification during recovery scans",
    )
    fs_p.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="re-execute a saved counterexample schedule instead of sweeping",
    )
    fs_p.add_argument(
        "--save",
        default=None,
        metavar="FILE",
        help="write the first counterexample schedule to FILE as JSON",
    )

    tr_p = sub.add_parser(
        "trace",
        help="run one cell with event tracing, export a Chrome trace",
    )
    tr_p.add_argument(
        "design",
        help="design name or alias (undo-redo/morlog/morlog-dp/fwb/"
        "undo-only/redo-only)",
    )
    tr_p.add_argument(
        "workload", choices=MICRO_WORKLOADS + MACRO_WORKLOADS
    )
    tr_p.add_argument(
        "--out", default="trace.json",
        help="Chrome trace_event JSON output (load in Perfetto)",
    )
    tr_p.add_argument(
        "--events", default=None, metavar="FILE",
        help="also dump the raw events as JSON lines",
    )
    tr_p.add_argument(
        "--limit", type=int, default=1 << 20,
        help="trace ring capacity in events (oldest dropped beyond it)",
    )
    tr_p.add_argument("--transactions", type=int, default=None)
    tr_p.add_argument("--threads", type=int, default=None)
    tr_p.add_argument("--large", action="store_true", help="4 KB dataset items")

    pr_p = sub.add_parser(
        "profile",
        help="run one cell under the host-side phase profiler",
    )
    pr_p.add_argument("design", help="design name or alias")
    pr_p.add_argument(
        "workload", choices=MICRO_WORKLOADS + MACRO_WORKLOADS
    )
    pr_p.add_argument("--transactions", type=int, default=None)
    pr_p.add_argument("--threads", type=int, default=None)
    pr_p.add_argument("--large", action="store_true", help="4 KB dataset items")
    pr_p.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the profile summary as JSON",
    )

    tf_p = sub.add_parser(
        "traffic",
        help="open-loop offered-load sweep with SLO tail-latency reporting",
    )
    tf_p.add_argument(
        "--designs", default="MorLog-DP,FWB-CRADE",
        help="comma-separated design names, or 'all'",
    )
    tf_p.add_argument(
        "--loads", default="100000,400000,1600000,6400000",
        help="comma-separated offered loads (tx/s)",
    )
    tf_p.add_argument(
        "--arrivals", type=int, default=400,
        help="arrivals per point before REPRO_SCALE (default 400)",
    )
    tf_p.add_argument(
        "--arrival-process", choices=("poisson", "bursty"), default="poisson",
    )
    tf_p.add_argument(
        "--burst-on-fraction", type=float, default=0.25,
        help="bursty process: long-run fraction of time spent bursting",
    )
    tf_p.add_argument(
        "--burst-cycle-ns", type=float, default=200000.0,
        help="bursty process: mean on+off cycle length (ns)",
    )
    tf_p.add_argument("--tenants", type=int, default=16)
    tf_p.add_argument(
        "--zipf-theta", type=float, default=0.9,
        help="tenant popularity skew (0 = uniform)",
    )
    tf_p.add_argument(
        "--mix", default="ycsb:0.7,tpcc:0.2,echo:0.1",
        help="workload blend, e.g. ycsb:0.7,tpcc:0.2,echo:0.1",
    )
    tf_p.add_argument("--threads", type=int, default=4)
    tf_p.add_argument(
        "--queue-capacity", type=int, default=16,
        help="per-core admission queue bound",
    )
    tf_p.add_argument(
        "--drop-policy", choices=("shed", "drop-oldest"), default="shed",
    )
    tf_p.add_argument("--seed", type=int, default=42)
    tf_p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: all CPU cores)",
    )
    tf_p.add_argument(
        "--no-cache", action="store_true",
        help="always re-simulate (skip the result cache)",
    )
    tf_p.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: REPRO_CACHE_DIR or"
        " ~/.cache/morlog-repro/grid)",
    )
    tf_p.add_argument(
        "--bench", action="store_true",
        help="append the SLO metrics to the BENCH trajectory as BenchRecords",
    )
    tf_p.add_argument(
        "--bench-dir", default=None, metavar="DIR",
        help="trajectory directory (default: REPRO_BENCH_DIR or cwd)",
    )
    tf_p.add_argument(
        "--crash-fraction", type=float, default=None, metavar="FRAC",
        help="also crash each point at FRAC of its arrivals and print the"
        " recovery-vs-log-occupancy curve",
    )
    tf_p.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the SLO table to FILE",
    )

    bench_p = sub.add_parser(
        "bench",
        help="benchmark observatory: records, comparisons, gates, reports",
    )
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)

    br_p = bench_sub.add_parser(
        "record", help="run one cell and record its metrics as BenchRecords"
    )
    br_p.add_argument("--design", default="MorLog-SLDE", choices=ALL_DESIGNS)
    br_p.add_argument(
        "--workload",
        default="echo",
        choices=MICRO_WORKLOADS + MACRO_WORKLOADS,
    )
    br_p.add_argument("--transactions", type=int, default=200)
    br_p.add_argument("--threads", type=int, default=4)
    br_p.add_argument("--large", action="store_true", help="4 KB dataset items")
    br_p.add_argument(
        "--dir", default=None, metavar="DIR",
        help="trajectory directory (default: REPRO_BENCH_DIR or cwd)",
    )

    bc_p = bench_sub.add_parser(
        "compare", help="classify metric movements between two trajectory points"
    )
    bc_p.add_argument(
        "baseline", nargs="?", default=None,
        help="baseline trajectory file (default: second-latest BENCH_*.json)",
    )
    bc_p.add_argument(
        "candidate", nargs="?", default=None,
        help="candidate trajectory file (default: latest BENCH_*.json)",
    )
    bc_p.add_argument(
        "--tolerance", type=float, default=None,
        help="override every record's relative tolerance band",
    )
    bc_p.add_argument(
        "--dir", default=None, metavar="DIR",
        help="trajectory directory (default: REPRO_BENCH_DIR or cwd)",
    )

    bg_p = bench_sub.add_parser(
        "gate",
        help="fail (exit 1) when the latest run regresses vs the baseline",
    )
    bg_p.add_argument(
        "--baseline", default="benchmarks/BASELINE.json",
        help="committed baseline trajectory (default: benchmarks/BASELINE.json)",
    )
    bg_p.add_argument(
        "--run", default=None, metavar="FILE",
        help="candidate trajectory (default: latest BENCH_*.json)",
    )
    bg_p.add_argument(
        "--tolerance", type=float, default=None,
        help="override every record's relative tolerance band",
    )
    bg_p.add_argument(
        "--dir", default=None, metavar="DIR",
        help="trajectory directory (default: REPRO_BENCH_DIR or cwd)",
    )

    bp_p = bench_sub.add_parser(
        "report", help="render the markdown dashboard + paper scorecard"
    )
    bp_p.add_argument(
        "--run", default=None, metavar="FILE",
        help="trajectory to report on (default: latest BENCH_*.json)",
    )
    bp_p.add_argument(
        "--out", default=os.path.join("benchmarks", "results", "REPORT.md"),
        help="output markdown file (default: benchmarks/results/REPORT.md)",
    )
    bp_p.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="also include a classified comparison against this trajectory",
    )
    bp_p.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any paper expectation fails",
    )
    bp_p.add_argument(
        "--dir", default=None, metavar="DIR",
        help="trajectory directory (default: REPRO_BENCH_DIR or cwd)",
    )
    return parser


def _cmd_run(args) -> None:
    dataset = DatasetSize.LARGE if args.large else DatasetSize.SMALL
    result = run_design(
        args.design,
        args.workload,
        dataset,
        n_threads=args.threads,
        n_transactions=args.transactions,
    )
    rows = [
        ["transactions", result.transactions],
        ["elapsed (simulated us)", result.elapsed_ns / 1000.0],
        ["throughput (tx/s)", result.throughput_tx_per_s],
        ["NVMM writes", result.nvmm_writes],
        ["NVMM write energy (nJ)", result.nvmm_write_energy_pj / 1000.0],
        ["log bits", result.log_bits],
    ]
    print(format_table(["metric", "value"], rows,
                       "%s on %s" % (args.design, args.workload)))


def _cmd_grid(args) -> int:
    from repro.experiments.cache import ResultCache, default_cache_dir
    from repro.experiments.megagrid import ExecutionPolicy, run_megagrid
    from repro.experiments.parallel import resolve_cell, resolve_jobs

    resume = args.resume is not None
    if not resume:
        if args.designs == "all":
            designs = list(ALL_DESIGNS)
        else:
            designs = [d.strip() for d in args.designs.split(",") if d.strip()]
        for design in designs:
            if design not in ALL_DESIGNS:
                print("unknown design %r (choose from %s)"
                      % (design, ALL_DESIGNS))
                return 2
        if args.workloads == "micro":
            workloads = list(MICRO_WORKLOADS)
        elif args.workloads == "macro":
            workloads = list(MACRO_WORKLOADS)
        else:
            workloads = [
                w.strip() for w in args.workloads.split(",") if w.strip()
            ]
        known = MICRO_WORKLOADS + MACRO_WORKLOADS
        for workload in workloads:
            if workload not in known:
                print("unknown workload %r (choose from %s)"
                      % (workload, known))
                return 2
        dataset = DatasetSize.LARGE if args.large else DatasetSize.SMALL
    try:
        jobs = resolve_jobs(args.jobs)
        shards = None if args.shards is None else resolve_jobs(args.shards, "shards")
        # run_megagrid checks the same policy; checking it here turns a
        # bad --retries/--cell-timeout into a usage error, like --jobs.
        ExecutionPolicy(
            jobs=jobs, retries=args.retries, timeout_s=args.cell_timeout)
        specs = None if resume else [
            resolve_cell(
                design, workload, dataset,
                n_transactions=args.transactions, n_threads=args.threads,
            )
            for workload in workloads
            for design in designs
        ]
    except ValueError as error:
        print("grid: %s" % error)
        return 2

    cache = None
    if not args.no_cache:
        cache = ResultCache(cache_dir=args.cache_dir or default_cache_dir())
    manifest_path = args.resume if resume else args.manifest
    try:
        outcome = run_megagrid(
            specs=specs,
            manifest_path=manifest_path,
            resume=resume,
            jobs=jobs,
            cache=cache,
            retries=args.retries,
            timeout_s=args.cell_timeout,
            fail_soft=not args.fail_fast,
            shards=shards,
            trace_dir=args.trace_dir,
            interrupt_after=args.interrupt_after,
        )
    except KeyboardInterrupt:
        print("\ninterrupted — completed cells are already in the cache")
        if manifest_path:
            print("resume with: repro grid --resume %s" % manifest_path)
        return 130
    report = outcome.report

    # Grid shape by cell identity (the manifest's on resume): a failed
    # cell renders as nan at its own position, never shifting others.
    workloads = list(dict.fromkeys(s.workload for s in outcome.specs))
    designs = list(dict.fromkeys(s.design for s in outcome.specs))
    values = {w: {d: None for d in designs} for w in workloads}
    for spec, result in zip(outcome.specs, outcome.results):
        if result is not None:
            values[spec.workload][spec.design] = result.throughput_tx_per_s
    baseline = designs[0]
    headers = ["workload"] + designs
    rows = []
    for workload in workloads:
        row = values[workload]
        base = row[baseline]
        rows.append([workload] + [
            row[d] / base if base and row[d] is not None else float("nan")
            for d in designs
        ])
    print(
        format_table(
            headers,
            rows,
            "grid throughput (normalized to %s)" % baseline,
            float_format="%.3f",
        )
    )
    if args.timing:
        timing_rows = [
            [c.workload, c.design, "hit" if c.cached else "miss", c.seconds]
            for c in report.cells
        ]
        print(
            format_table(
                ["workload", "design", "cache", "seconds"],
                timing_rows,
                "per-cell timing",
                float_format="%.3f",
            )
        )
    if outcome.failures:
        failure_rows = [
            [f.workload, f.design, f.kind, f.attempts, f.message[:60]]
            for f in outcome.failures
        ]
        print(
            format_table(
                ["workload", "design", "kind", "attempts", "error"],
                failure_rows,
                "failed cells (results above render as nan)",
            )
        )
    if args.figures_dir is not None:
        from repro.experiments.vega import write_figure

        paths = write_figure(
            args.figures_dir,
            "grid_throughput",
            values,
            "grid throughput (tx/s)",
            "throughput (tx/s)",
        )
        print("figure: %s + %s" % (paths.vl_path, paths.csv_path))
    print(report.summary())
    if manifest_path and not args.fail_fast:
        print("manifest: %s (resume with: repro grid --resume %s)"
              % (manifest_path, manifest_path))
    if args.trace_dir is not None:
        traced = sum(1 for c in report.cells if c.trace_path is not None)
        print("traces: %d/%d cells have artifacts in %s"
              % (traced, len(report.cells), args.trace_dir))
    if cache is not None:
        print(
            "cache: hits=%d misses=%d stores=%d dir=%s"
            % (
                cache.stats.hits,
                cache.stats.misses,
                cache.stats.stores,
                cache.cache_dir,
            )
        )
    if args.bench:
        from repro.bench import append_records, current_run_path
        from repro.experiments.megagrid import megagrid_records

        records = megagrid_records(outcome)
        path, total = append_records(
            current_run_path(args.bench_dir), records)
        print("%d record(s) appended to %s (%d total)"
              % (len(records), path, total))
    return 1 if outcome.failures else 0


def _cmd_compare(args) -> None:
    # The classification/ratio logic is the bench comparator's — one
    # implementation for every diffing surface (see repro.bench.compare).
    from repro.bench.compare import RUN_RESULT_METRICS, run_result_deltas

    rows = []
    baseline = None
    for design in DESIGN_NAMES:
        result = run_design(
            design,
            args.workload,
            DatasetSize.SMALL,
            n_threads=args.threads,
            n_transactions=args.transactions,
        )
        if baseline is None:
            baseline = result
        deltas = run_result_deltas(design, baseline, result)
        rows.append([design] + [d.ratio for d in deltas])
    print(
        format_table(
            ["design"] + [label for _attr, label, _dir in RUN_RESULT_METRICS],
            rows,
            "%s (normalized to FWB-CRADE)" % args.workload,
        )
    )


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "designs":
        for name in ALL_DESIGNS:
            print(name)
    elif args.command == "run":
        _cmd_run(args)
    elif args.command == "grid":
        return _cmd_grid(args)
    elif args.command == "compare":
        _cmd_compare(args)
    elif args.command == "figure":
        scale = ExperimentScale()
        if args.fast:
            scale = ExperimentScale(
                micro_transactions=60,
                macro_transactions=40,
                micro_threads=2,
                macro_threads=2,
            )
        print(FIGURES[args.name](scale))
    elif args.command == "overhead":
        print(FIGURES["table1"](None))
    elif args.command == "record":
        _cmd_record(args)
    elif args.command == "replay":
        _cmd_replay(args)
    elif args.command == "fault-sweep":
        return _cmd_fault_sweep(args)
    elif args.command == "trace":
        return _cmd_trace(args)
    elif args.command == "profile":
        return _cmd_profile(args)
    elif args.command == "traffic":
        return _cmd_traffic(args)
    elif args.command == "bench":
        return _cmd_bench(args)
    return 0


def _cmd_trace(args) -> int:
    from repro.experiments.parallel import resolve_cell, run_cell
    from repro.trace import (
        TraceConfig,
        assemble_timelines,
        metrics_snapshot,
        timeline_summary,
        write_chrome_trace,
    )
    from repro.trace.export import write_event_lines

    design = _resolve_trace_design(args.design)
    dataset = DatasetSize.LARGE if args.large else DatasetSize.SMALL
    spec = resolve_cell(
        design,
        args.workload,
        dataset,
        n_transactions=args.transactions,
        n_threads=args.threads,
    )
    result, system = run_cell(
        spec, TraceConfig(enabled=True, capacity=args.limit)
    )
    bus = system.tracer
    count = write_chrome_trace(
        args.out, bus.events, design=design, workload=args.workload,
        dropped=bus.dropped,
    )
    print("wrote %d events to %s (load in ui.perfetto.dev)" % (count, args.out))
    if args.events is not None:
        n = write_event_lines(args.events, bus.events)
        print("wrote %d raw events to %s" % (n, args.events))
    summary = bus.summary()
    if summary["dropped"]:
        print(
            "warning: ring dropped %d events — the export and metrics"
            " snapshot cover a TRUNCATED stream (raise --limit beyond %d)"
            % (summary["dropped"], args.limit)
        )
    rows = [[cat, n] for cat, n in summary["by_category"].items()]
    print(format_table(["category", "events"], rows,
                       "%s on %s" % (design, args.workload)))
    tl = timeline_summary(assemble_timelines(bus.events))
    print(format_table(
        ["metric", "value"], [[k, v] for k, v in tl.items()], "transactions"
    ))
    snapshot = metrics_snapshot(
        result, bus, design=design, workload=args.workload,
        memo=system.controller.nvm.memo_stats(),
    )
    print("metrics snapshot: %d counters, %d trace names%s"
          % (len(snapshot["counters"]),
             len(snapshot["trace"]["bus"]["by_name"]),
             " [TRUNCATED]" if snapshot["trace"]["truncated"] else ""))
    memo = snapshot.get("memo") or {}
    if memo:
        hits = sum(c["hits"] for c in memo.values())
        misses = sum(c["misses"] for c in memo.values())
        print("codec memo: %d hits / %d misses over %d cache(s)"
              % (hits, misses, len(memo)))
    return 0


def _cmd_profile(args) -> int:
    import json

    from repro.trace import profile_design

    design = _resolve_trace_design(args.design)
    dataset = DatasetSize.LARGE if args.large else DatasetSize.SMALL
    result, report = profile_design(
        design,
        args.workload,
        dataset=dataset,
        n_transactions=args.transactions,
        n_threads=args.threads,
    )
    print(report.format("%s on %s (%d tx, %.0f tx/s simulated)" % (
        design, args.workload, result.transactions, result.throughput_tx_per_s
    )))
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(
                {
                    "design": design,
                    "workload": args.workload,
                    "transactions": result.transactions,
                    "profile": report.as_dict(),
                },
                fh,
                indent=2,
                sort_keys=True,
            )
        print("profile summary written to %s" % args.json)
    return 0


def _cmd_fault_sweep(args) -> int:
    from repro.faultinject.sweep import (
        DEFAULT_SWEEP_DESIGNS,
        CrashSchedule,
        SweepOptions,
        replay_schedule,
        run_sweep,
    )

    if args.replay is not None:
        with open(args.replay) as fh:
            schedule = CrashSchedule.from_json(fh.read())
        report = replay_schedule(
            schedule, verify_decode=not args.no_verify_decode
        )
        if not report.crashed:
            print("replay never reached crash index %d" % schedule.crash_index)
            return 1
        print(
            "crashed at #%d (%s); recovery: %s"
            % (
                schedule.crash_index,
                report.event.point if report.event else "?",
                "%d violation(s)" % len(report.violations)
                if report.violations
                else "clean",
            )
        )
        for violation in report.violations:
            print(violation.format())
        return 1 if report.violations else 0

    designs = (
        DEFAULT_SWEEP_DESIGNS if args.design == "all" else (args.design,)
    )
    options = SweepOptions(
        workload=args.workload,
        transactions=args.transactions,
        threads=args.threads,
        seed=args.seed,
        budget=args.budget,
        verify_decode=not args.no_verify_decode,
        mutant=args.mutant,
        fwb_interval_cycles=args.fwb_interval,
    )
    rows = []
    failed = False
    for design in designs:
        result = run_sweep(design, options)
        rows.append(
            [
                result.design,
                result.total_events,
                result.checked_events,
                "PASS" if result.ok else "FAIL",
            ]
        )
        if not result.ok:
            failed = True
            print(result.counterexample.format())
            if args.save is not None:
                with open(args.save, "w") as fh:
                    fh.write(result.counterexample.schedule.to_json())
                print("schedule saved to %s" % args.save)
    mode = "exhaustive" if args.budget <= 0 else "budget=%d" % args.budget
    print(
        format_table(
            ["design", "crash points", "checked", "verdict"],
            rows,
            "fault sweep: %s, %d tx, %d threads, seed %d, %s"
            % (args.workload, args.transactions, args.threads, args.seed, mode),
        )
    )
    return 1 if failed else 0


def _cmd_bench(args) -> int:
    if args.bench_command == "record":
        return _cmd_bench_record(args)
    if args.bench_command == "compare":
        return _cmd_bench_compare(args)
    if args.bench_command == "gate":
        return _cmd_bench_gate(args)
    return _cmd_bench_report(args)


def _cmd_bench_record(args) -> int:
    from repro.bench import (
        HIGHER,
        LOWER,
        append_records,
        current_run_path,
        record,
    )
    from repro.experiments.parallel import resolve_cell, run_cell
    from repro.experiments.serialize import stable_hash
    from repro.trace import metrics_snapshot

    dataset = DatasetSize.LARGE if args.large else DatasetSize.SMALL
    spec = resolve_cell(
        args.design,
        args.workload,
        dataset,
        n_transactions=args.transactions,
        n_threads=args.threads,
    )
    result, system = run_cell(spec)
    # The digest covers everything that shapes this cell's absolute
    # numbers, so `bench compare` never pairs incompatible measurements.
    digest = stable_hash(
        {
            "config": spec.config_dict,
            "design": spec.design,
            "params": spec.params_dict,
            "threads": spec.n_threads,
            "transactions": spec.n_transactions,
            "workload": spec.workload,
        }
    )
    benchmark = "cell/%s/%s" % (args.design, args.workload)
    snapshot = metrics_snapshot(
        result,
        design=args.design,
        workload=args.workload,
        memo=system.controller.nvm.memo_stats(),
    )
    records = [
        record(
            benchmark, "throughput_tx_per_s", result.throughput_tx_per_s,
            unit="tx/s", direction=HIGHER, config_digest=digest,
            attachments={"metrics_snapshot": snapshot},
        ),
        record(
            benchmark, "nvmm_writes", float(result.nvmm_writes),
            unit="writes", direction=LOWER, config_digest=digest,
        ),
        record(
            benchmark, "nvmm_write_energy_pj", result.nvmm_write_energy_pj,
            unit="pJ", direction=LOWER, config_digest=digest,
        ),
        record(
            benchmark, "log_bits", float(result.log_bits),
            unit="bits", direction=LOWER, config_digest=digest,
        ),
    ]
    path, total = append_records(current_run_path(args.dir), records)
    rows = [[r.metric, r.value, r.unit, r.direction] for r in records]
    print(format_table(["metric", "value", "unit", "direction"], rows,
                       "%s (recorded)" % benchmark))
    print("%d record(s) appended to %s (%d total)" % (len(records), path, total))
    return 0


def _resolve_trajectories(args):
    """(baseline_path, candidate_path) for ``bench compare``."""
    from repro.bench import list_runs

    baseline, candidate = args.baseline, args.candidate
    if baseline is None or candidate is None:
        runs = list_runs(args.dir)
        if candidate is None:
            if not runs:
                raise SystemExit("no BENCH_*.json trajectory files found")
            candidate = runs[-1]
        if baseline is None:
            earlier = [r for r in runs if r != candidate]
            if not earlier:
                raise SystemExit(
                    "need two trajectory points to compare (found only %s)"
                    % candidate
                )
            baseline = earlier[-1]
    return baseline, candidate


def _print_comparison(report, baseline_name: str, candidate_name: str) -> None:
    print("baseline:  %s" % baseline_name)
    print("candidate: %s" % candidate_name)
    for delta in report.deltas:
        print(delta.format() + ("  [%s]" % delta.note if delta.note else ""))
    print(report.summary())


def _cmd_bench_compare(args) -> int:
    from repro.bench import compare_records, load_run

    baseline_path, candidate_path = _resolve_trajectories(args)
    _header, baseline = load_run(baseline_path)
    _header, candidate = load_run(candidate_path)
    report = compare_records(
        baseline, candidate, tolerance_override=args.tolerance
    )
    _print_comparison(report, baseline_path, candidate_path)
    return 0


def _cmd_bench_gate(args) -> int:
    from repro.bench import compare_records, latest_run, load_run

    if not os.path.exists(args.baseline):
        print("gate: baseline %s does not exist (refresh it per"
              " docs/benchmarking.md)" % args.baseline)
        return 2
    run_path = args.run or latest_run(args.dir)
    if run_path is None:
        print("gate: no BENCH_*.json trajectory to check")
        return 2
    _header, baseline = load_run(args.baseline)
    _header, candidate = load_run(run_path)
    report = compare_records(
        baseline, candidate, tolerance_override=args.tolerance
    )
    _print_comparison(report, args.baseline, run_path)
    compared = [d for d in report.deltas if d.verdict != "skipped"]
    if not compared:
        print("gate: FAIL — no comparable metrics (config/scale mismatch"
              " with the baseline?)")
        return 1
    if report.regressions:
        print("gate: FAIL — %d metric(s) regressed beyond tolerance:"
              % len(report.regressions))
        for delta in report.regressions:
            print("  " + delta.format())
        return 1
    print("gate: PASS (%d metric(s) compared)" % len(compared))
    return 0


def _cmd_bench_report(args) -> int:
    from repro.bench import (
        compare_records,
        evaluate_expectations,
        latest_run,
        load_run,
        render_report,
        scorecard_counts,
    )

    run_path = args.run or latest_run(args.dir)
    if run_path is None:
        print("report: no BENCH_*.json trajectory to report on")
        return 2
    header, records = load_run(run_path)
    comparison = baseline_name = None
    if args.baseline:
        _bheader, baseline = load_run(args.baseline)
        comparison = compare_records(baseline, records)
        baseline_name = args.baseline
    from repro.experiments.vega import discover_figures

    out_dir_for_figures = os.path.dirname(args.out) or "."
    text = render_report(
        records,
        run_header=header,
        run_name=os.path.basename(run_path),
        comparison=comparison,
        baseline_name=baseline_name or "baseline",
        figures=discover_figures(out_dir_for_figures),
    )
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write(text)
    counts = scorecard_counts(evaluate_expectations(records))
    print("report written to %s (%d records)" % (args.out, len(records)))
    print("scorecard: %d pass, %d drift, %d fail, %d missing" % (
        counts["pass"], counts["drift"], counts["fail"], counts["missing"]
    ))
    if args.strict and counts["fail"]:
        return 1
    return 0


def _cmd_traffic(args) -> int:
    from repro.experiments.cache import PayloadCache, default_cache_dir
    from repro.traffic import (
        TrafficConfig,
        crash_recovery_curve,
        run_load_sweep,
        slo_table,
        sweep_records,
    )
    from repro.experiments.parallel import resolve_jobs
    from repro.workloads.mixture import parse_blend

    if args.designs == "all":
        designs = list(ALL_DESIGNS)
    else:
        designs = [d.strip() for d in args.designs.split(",") if d.strip()]
    for design in designs:
        if design not in ALL_DESIGNS:
            print("unknown design %r (choose from %s)" % (design, ALL_DESIGNS))
            return 2
    try:
        loads = [float(l) for l in args.loads.split(",") if l.strip()]
        blend = parse_blend(args.mix)
        traffic = TrafficConfig(
            arrivals=args.arrivals,
            process=args.arrival_process,
            burst_on_fraction=args.burst_on_fraction,
            burst_cycle_ns=args.burst_cycle_ns,
            n_tenants=args.tenants,
            zipf_theta=args.zipf_theta,
            mix=blend,
            n_threads=args.threads,
            queue_capacity=args.queue_capacity,
            drop_policy=args.drop_policy,
            seed=args.seed,
        )
        traffic.validate()
        jobs = resolve_jobs(args.jobs)
    except ValueError as error:
        print("traffic: %s" % error)
        return 2
    if not loads:
        print("traffic: need at least one offered load")
        return 2

    cache = None
    if not args.no_cache:
        cache = PayloadCache(cache_dir=args.cache_dir or default_cache_dir())
    outcome = run_load_sweep(
        designs, loads, traffic, jobs=jobs, cache=cache)
    table = slo_table(outcome)
    print(table)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(table + "\n")
        print("SLO table written to %s" % args.out)
    print(outcome.report.summary())
    if cache is not None:
        print("cache: hits=%d misses=%d stores=%d dir=%s" % (
            cache.stats.hits, cache.stats.misses, cache.stats.stores,
            cache.cache_dir))

    if args.crash_fraction is not None:
        from repro.traffic.sweep import resolve_traffic_cell

        rows = []
        for design in designs:
            # Resolve through the same path as the sweep so REPRO_SCALE
            # shrinks the crash points identically.
            spec = resolve_traffic_cell(design, traffic)
            from repro.traffic import traffic_config_from_dict

            resolved = traffic_config_from_dict(spec.traffic_dict)
            for point in crash_recovery_curve(
                design, loads, resolved, crash_fraction=args.crash_fraction,
            ):
                profile = point.profile
                rows.append([
                    design,
                    point.offered_tx_per_s,
                    "yes" if point.crashed else "no",
                    profile.live_entries,
                    profile.used_bytes,
                    "%.4f" % profile.occupancy_fraction,
                    profile.redone_words + profile.undone_words,
                    profile.estimated_recovery_ns / 1000.0,
                ])
        print(format_table(
            ["design", "offered/s", "crashed", "live", "log bytes",
             "occupancy", "replayed words", "est recovery (us)"],
            rows,
            "crash at %.0f%% of arrivals: recovery vs log occupancy"
            % (args.crash_fraction * 100),
        ))

    if args.bench:
        from repro.bench import append_records, current_run_path

        records = sweep_records(outcome)
        path, total = append_records(
            current_run_path(args.bench_dir), records)
        print("%d record(s) appended to %s (%d total)" % (
            len(records), path, total))
    return 0


def _cmd_record(args) -> None:
    from repro.replay import record_trace, save_trace

    trace, _result, _system = record_trace(
        args.design,
        args.workload,
        n_transactions=args.transactions,
        n_threads=args.threads,
    )
    digest = save_trace(args.out, trace)
    print(
        "wrote %d transactions (%d ops, %d store pairs, %d setup stores) to %s"
        % (
            trace.n_transactions,
            trace.n_ops,
            trace.pair_old.size,
            trace.setup_addr.size,
            args.out,
        )
    )
    print("trace digest: %s" % digest)


def _cmd_replay(args) -> None:
    from repro.replay import load_trace, replay_trace

    trace = load_trace(args.trace)
    system = make_system(args.design, default_config())
    result = replay_trace(system, trace)
    rows = [
        ["replayed transactions", result.transactions],
        ["throughput (tx/s)", result.throughput_tx_per_s],
        ["NVMM writes", result.nvmm_writes],
        ["NVMM write energy (nJ)", result.nvmm_write_energy_pj / 1000.0],
    ]
    print(format_table(["metric", "value"], rows,
                       "%s replaying %s" % (args.design, args.trace)))


if __name__ == "__main__":
    sys.exit(main())
