"""One function per paper table/figure (see DESIGN.md's experiment index).

Each function returns structured data and renders the paper-shaped table
via :func:`repro.analysis.report.format_table`.  Absolute values differ
from the paper (different substrate); the shapes — who wins, by roughly
what factor — are what EXPERIMENTS.md tracks.
"""

from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.overhead import morphable_logging_overhead, slde_overhead
from repro.analysis.report import format_table
from repro.common.config import SystemConfig
from repro.common.stats import geometric_mean
from repro.core.designs import DESIGN_NAMES, EXTENSION_DESIGN_NAMES
from repro.experiments.runner import (
    DEFAULT_PARAMS,
    ExperimentScale,
    default_config,
    run_design,
    run_grid,
)
from repro.workloads.base import DatasetSize

MICRO = ("btree", "hash", "queue", "rbtree", "sdg", "sps")
MACRO_CELLS = (
    ("echo", DatasetSize.SMALL, "Echo-Small"),
    ("echo", DatasetSize.LARGE, "Echo-Large"),
    ("ycsb", DatasetSize.SMALL, "YCSB-Small"),
    ("ycsb", DatasetSize.LARGE, "YCSB-Large"),
    ("tpcc", DatasetSize.SMALL, "TPCC"),
)
# The paper's Figure 3/5 application list (WHISPER): echo, ycsb, tpcc,
# vacation, ctree, hashmap, redis, memcached — all implemented.
MOTIVATION_WORKLOADS = (
    "echo", "ycsb", "tpcc", "vacation", "ctree", "hash", "redis", "memcached",
)

BASELINE = "FWB-CRADE"

#: The paper's six designs plus the comparative-testbed extensions
#: (ROADMAP item 3) — the design axis of the fig12x/fig13x variants.
#: Kept separate from DESIGN_NAMES so the paper-shaped tables and their
#: golden outputs are untouched.
COMPARISON_DESIGN_NAMES = DESIGN_NAMES + EXTENSION_DESIGN_NAMES


def _grid_metric(grid, metric) -> "OrderedDict[str, OrderedDict[str, float]]":
    out: "OrderedDict[str, OrderedDict[str, float]]" = OrderedDict()
    for workload, row in grid.items():
        out[workload] = OrderedDict(
            (design, metric(result)) for design, result in row.items()
        )
    return out


def _normalized_rows(values, baseline=BASELINE) -> Tuple[List[str], List[List]]:
    designs = list(next(iter(values.values())).keys())
    headers = ["workload"] + designs
    rows: List[List] = []
    per_design: Dict[str, List[float]] = {d: [] for d in designs}
    for workload, row in values.items():
        base = row[baseline]
        normalized = [row[d] / base if base else float("nan") for d in designs]
        rows.append([workload] + normalized)
        for d, v in zip(designs, normalized):
            per_design[d].append(v)
    rows.append(
        ["Gmean"] + [geometric_mean(per_design[d]) for d in designs]
    )
    return headers, rows


# ---------------------------------------------------------------------------
# Motivation figures
# ---------------------------------------------------------------------------


def fig3_write_distance(
    scale: Optional[ExperimentScale] = None,
    workloads: Sequence[str] = MOTIVATION_WORKLOADS,
) -> Dict[str, "OrderedDict[str, float]"]:
    """Figure 3: write-distance distribution per workload."""
    # Imported here: the motivation module loads numpy, which importing
    # this package (every CLI command, every grid worker) does not.
    from repro.analysis.motivation import write_distance_distribution

    scale = scale or ExperimentScale()
    out: "OrderedDict[str, OrderedDict[str, float]]" = OrderedDict()
    for name in workloads:
        out[name] = write_distance_distribution(
            name,
            n_transactions=scale.transactions(True, DatasetSize.SMALL),
            n_threads=scale.threads(True),
            params=DEFAULT_PARAMS,
            config=default_config(),
        )
    return out


def fig3_table(data=None) -> str:
    data = data or fig3_write_distance()
    buckets = list(next(iter(data.values())).keys())
    rows = [[w] + [100 * frac for frac in dist.values()] for w, dist in data.items()]
    return format_table(
        ["workload"] + buckets,
        rows,
        title="Figure 3: write distance distribution (% of writes)",
        float_format="%.1f",
    )


def fig5_clean_bytes(
    scale: Optional[ExperimentScale] = None,
    workloads: Sequence[str] = MOTIVATION_WORKLOADS,
) -> "OrderedDict[str, float]":
    """Figure 5: % clean bytes among data updated by transactions."""
    from repro.analysis.motivation import clean_byte_percentage

    scale = scale or ExperimentScale()
    out: "OrderedDict[str, float]" = OrderedDict()
    for name in workloads:
        out[name] = clean_byte_percentage(
            name,
            n_transactions=scale.transactions(True, DatasetSize.SMALL),
            n_threads=scale.threads(True),
            params=DEFAULT_PARAMS,
            config=default_config(),
        )
    return out


def fig5_table(data=None) -> str:
    data = data or fig5_clean_bytes()
    rows = [[w, pct] for w, pct in data.items()]
    rows.append(["Average", sum(data.values()) / len(data)])
    return format_table(
        ["workload", "clean bytes (%)"],
        rows,
        title="Figure 5: percentage of clean bytes among transactional updates",
        float_format="%.1f",
    )


def table2_patterns(
    scale: Optional[ExperimentScale] = None,
    workloads: Sequence[str] = MOTIVATION_WORKLOADS,
) -> "OrderedDict[str, float]":
    """Table II: fraction of dirty log data per DLDC pattern."""
    from repro.analysis.motivation import dldc_pattern_census

    scale = scale or ExperimentScale()
    return dldc_pattern_census(
        workloads,
        n_transactions=max(scale.transactions(True, DatasetSize.SMALL) // 2, 50),
        n_threads=scale.threads(True),
        params=DEFAULT_PARAMS,
        config=default_config(),
    )


def table2_table(data=None) -> str:
    data = data or table2_patterns()
    rows = [[name, 100 * frac] for name, frac in data.items()]
    compressible = 100 * sum(f for n, f in data.items() if n != "uncompressed")
    rows.append(["cumulative compressible", compressible])
    return format_table(
        ["pattern", "% of dirty log data"],
        rows,
        title="Table II: DLDC pattern census",
        float_format="%.1f",
    )


def table1_overheads(config: Optional[SystemConfig] = None) -> Dict[str, float]:
    """Table I plus the section IV-C SLDE overheads."""
    config = config or default_config().with_changes()
    dp_config = replace(config, logging=replace(config.logging, delay_persistence=True))
    hw = morphable_logging_overhead(dp_config)
    slde = slde_overhead(config)
    out = {
        "log_registers_bytes": hw.log_registers_bytes,
        "l1_extension_bits_per_line": hw.l1_extension_bits_per_line,
        "undo_redo_buffer_bytes": hw.undo_redo_buffer_bytes,
        "redo_buffer_bytes": hw.redo_buffer_bytes,
        "ulog_counters_bytes": hw.ulog_counters_bytes,
    }
    out.update(slde)
    return out


# ---------------------------------------------------------------------------
# Main evaluation figures
# ---------------------------------------------------------------------------


def fig12_micro_throughput(
    dataset: DatasetSize = DatasetSize.SMALL,
    scale: Optional[ExperimentScale] = None,
    designs: Sequence[str] = DESIGN_NAMES,
    jobs: Optional[int] = None,
    cache=None,
):
    """Figure 12: micro-benchmark throughput, normalized to FWB-CRADE."""
    grid = run_grid(designs, MICRO, dataset, scale, jobs=jobs, cache=cache)
    values = _grid_metric(grid, lambda r: r.throughput_tx_per_s)
    return grid, values


def fig13_write_traffic(
    dataset: DatasetSize = DatasetSize.SMALL,
    scale: Optional[ExperimentScale] = None,
    designs: Sequence[str] = DESIGN_NAMES,
    grid=None,
    jobs: Optional[int] = None,
    cache=None,
):
    """Figure 13: NVMM write traffic, normalized to FWB-CRADE."""
    if grid is None:
        grid = run_grid(designs, MICRO, dataset, scale, jobs=jobs, cache=cache)
    values = _grid_metric(grid, lambda r: float(r.nvmm_writes))
    return grid, values


def table5_write_energy(
    scale: Optional[ExperimentScale] = None,
    designs: Sequence[str] = DESIGN_NAMES,
    grids=None,
    jobs: Optional[int] = None,
    cache=None,
):
    """Table V: NVMM write-energy reduction vs FWB-CRADE, both sizes."""
    out: "OrderedDict[str, OrderedDict[str, float]]" = OrderedDict()
    for dataset, label in ((DatasetSize.SMALL, "Small"), (DatasetSize.LARGE, "Large")):
        grid = None if grids is None else grids.get(label)
        if grid is None:
            grid = run_grid(designs, MICRO, dataset, scale, jobs=jobs, cache=cache)
        energy = _grid_metric(grid, lambda r: r.nvmm_write_energy_pj)
        reductions: "OrderedDict[str, float]" = OrderedDict()
        for design in designs:
            ratios = [row[design] / row[BASELINE] for row in energy.values()]
            reductions[design] = 100.0 * (1.0 - geometric_mean(ratios))
        out[label] = reductions
    return out


def table6_log_bits(
    scale: Optional[ExperimentScale] = None,
    designs: Sequence[str] = DESIGN_NAMES,
    jobs: Optional[int] = None,
    cache=None,
):
    """Table VI: log-bit reduction with expansion coding disabled."""
    base = default_config()
    config = base.with_changes(
        encoding=replace(base.encoding, expansion_enabled=False)
    )
    out: "OrderedDict[str, OrderedDict[str, float]]" = OrderedDict()
    for dataset, label in ((DatasetSize.SMALL, "Small"), (DatasetSize.LARGE, "Large")):
        grid = run_grid(
            designs, MICRO, dataset, scale, config=config, jobs=jobs, cache=cache
        )
        bits = _grid_metric(grid, lambda r: float(r.log_bits))
        reductions: "OrderedDict[str, float]" = OrderedDict()
        for design in designs:
            ratios = [row[design] / row[BASELINE] for row in bits.values()]
            reductions[design] = 100.0 * (1.0 - geometric_mean(ratios))
        out[label] = reductions
    return out


def fig14_macro_throughput(
    scale: Optional[ExperimentScale] = None,
    designs: Sequence[str] = DESIGN_NAMES,
    jobs: Optional[int] = None,
    cache=None,
):
    """Figure 14: macro-benchmark throughput, normalized to FWB-CRADE."""
    from repro.experiments.parallel import resolve_cell, run_cells

    scale = scale or ExperimentScale()
    specs = [
        resolve_cell(design, workload, dataset, scale)
        for workload, dataset, _label in MACRO_CELLS
        for design in designs
    ]
    flat, _report = run_cells(specs, jobs=1 if jobs is None else jobs, cache=cache)
    values: "OrderedDict[str, OrderedDict[str, float]]" = OrderedDict()
    index = 0
    for _workload, _dataset, label in MACRO_CELLS:
        row: "OrderedDict[str, float]" = OrderedDict()
        for design in designs:
            row[design] = flat[index].throughput_tx_per_s
            index += 1
        values[label] = row
    return values


def normalized_table(values, title: str) -> str:
    headers, rows = _normalized_rows(values)
    return format_table(headers, rows, title, float_format="%.3f")


# ---------------------------------------------------------------------------
# Comparative persistence-design testbed (extension figures)
# ---------------------------------------------------------------------------


def fig12x_extension_throughput(
    dataset: DatasetSize = DatasetSize.SMALL,
    scale: Optional[ExperimentScale] = None,
    designs: Sequence[str] = COMPARISON_DESIGN_NAMES,
    jobs: Optional[int] = None,
    cache=None,
):
    """Figure 12 extended: micro throughput including InCLL/CoW/Ckpt."""
    return fig12_micro_throughput(dataset, scale, designs, jobs=jobs, cache=cache)


def fig13x_extension_write_traffic(
    dataset: DatasetSize = DatasetSize.SMALL,
    scale: Optional[ExperimentScale] = None,
    designs: Sequence[str] = COMPARISON_DESIGN_NAMES,
    jobs: Optional[int] = None,
    cache=None,
):
    """Figure 13 extended: NVMM write traffic including InCLL/CoW/Ckpt.

    The interesting columns: CoW-Page's page-granularity copies amplify
    traffic under small transactions, while InCLL's colocated slots trade
    central-log control writes for embedded ones.
    """
    return fig13_write_traffic(dataset, scale, designs, jobs=jobs, cache=cache)


def extension_commit_latency(
    scale: Optional[ExperimentScale] = None,
    designs: Sequence[str] = COMPARISON_DESIGN_NAMES,
    offered_tx_per_s: float = 100_000.0,
    seed: int = 42,
):
    """Open-loop commit latency (arrival → commit persist) per design.

    One moderate offered-load point through the traffic engine; returns
    ``{design: {"p50_ns": ..., "p99_ns": ..., "mean_ns": ...}}``.
    """
    from repro.traffic.engine import TrafficConfig, run_traffic

    scale = scale or ExperimentScale()
    arrivals = max(scale.transactions(False, DatasetSize.SMALL), 30)
    traffic = TrafficConfig(
        offered_tx_per_s=offered_tx_per_s, arrivals=arrivals, seed=seed
    )
    out: "OrderedDict[str, Dict[str, float]]" = OrderedDict()
    for design in designs:
        result = run_traffic(design, traffic)
        out[design] = {
            "mean_ns": result.mean_latency_ns,
            "p50_ns": result.p50_latency_ns,
            "p99_ns": result.p99_latency_ns,
        }
    return out


def extension_latency_table(data=None) -> str:
    data = data or extension_commit_latency()
    rows = [
        [design, row["mean_ns"], row["p50_ns"], row["p99_ns"]]
        for design, row in data.items()
    ]
    return format_table(
        ["design", "mean (ns)", "p50 (ns)", "p99 (ns)"],
        rows,
        title="Extension designs: open-loop commit latency",
        float_format="%.0f",
    )


# ---------------------------------------------------------------------------
# Sensitivity studies
# ---------------------------------------------------------------------------


def fig15_buffer_sweep(
    ur_sizes: Sequence[int] = (1, 4, 16, 64, 128),
    redo_sizes: Sequence[int] = (2, 16, 32, 128),
    scale: Optional[ExperimentScale] = None,
):
    """Figure 15: throughput / traffic vs the two buffer sizes (echo).

    The sweep uses a working set larger than the L1, so lines with
    buffered redo data actually get evicted mid-transaction — that is
    what gives the redo buffer its role.
    """
    scale = scale or ExperimentScale()
    base = default_config()
    params = replace(DEFAULT_PARAMS, initial_items=2048, key_space=4096)
    out: "OrderedDict[Tuple[int, int], Tuple[float, int]]" = OrderedDict()
    for redo in redo_sizes:
        for ur in ur_sizes:
            config = base.with_changes(
                logging=replace(
                    base.logging,
                    undo_redo_buffer_entries=ur,
                    redo_buffer_entries=redo,
                )
            )
            result = run_design(
                "MorLog-SLDE", "echo", DatasetSize.SMALL, scale, config,
                params=params,
            )
            out[(ur, redo)] = (result.throughput_tx_per_s, result.nvmm_writes)
    return out


def fig16_thread_scaling(
    thread_counts: Sequence[int] = (1, 2, 4, 8, 16),
    dataset: DatasetSize = DatasetSize.SMALL,
    scale: Optional[ExperimentScale] = None,
    designs: Sequence[str] = DESIGN_NAMES,
    workloads: Sequence[str] = ("hash", "queue", "sps"),
):
    """Figure 16: normalized throughput vs thread count (micro subset).

    The paper sweeps 1-16 threads; counts beyond the Table III core count
    get a proportionally larger machine (one thread per core, as there).
    """
    from repro.common.config import CoreConfig

    scale = scale or ExperimentScale()
    out: "OrderedDict[int, OrderedDict[str, float]]" = OrderedDict()
    for n in thread_counts:
        config = default_config()
        if n > config.cores.n_cores:
            config = config.with_changes(cores=CoreConfig(n_cores=n))
        per_design: "OrderedDict[str, List[float]]" = OrderedDict(
            (d, []) for d in designs
        )
        for workload in workloads:
            row: Dict[str, float] = {}
            for design in designs:
                result = run_design(
                    design, workload, dataset, scale, config=config, n_threads=n
                )
                row[design] = result.throughput_tx_per_s
            for design in designs:
                per_design[design].append(row[design] / row[BASELINE])
        out[n] = OrderedDict(
            (d, geometric_mean(v)) for d, v in per_design.items()
        )
    return out


def sens_nvm_latency(
    scales_x: Sequence[float] = (1.0, 4.0, 16.0, 32.0),
    scale: Optional[ExperimentScale] = None,
    designs: Sequence[str] = ("FWB-CRADE", "MorLog-SLDE", "MorLog-DP"),
    workloads: Sequence[str] = ("hash", "queue"),
):
    """Section VI-E: normalized throughput vs NVMM write-latency scale."""
    scale = scale or ExperimentScale()
    base = default_config()
    out: "OrderedDict[float, OrderedDict[str, float]]" = OrderedDict()
    for factor in scales_x:
        config = base.with_changes(
            nvm=replace(base.nvm, write_latency_scale=factor)
        )
        per_design: "OrderedDict[str, List[float]]" = OrderedDict(
            (d, []) for d in designs
        )
        for workload in workloads:
            row: Dict[str, float] = {}
            for design in designs:
                result = run_design(design, workload, DatasetSize.SMALL, scale, config)
                row[design] = result.throughput_tx_per_s
            for design in designs:
                per_design[design].append(row[design] / row[designs[0]])
        out[factor] = OrderedDict(
            (d, geometric_mean(v)) for d, v in per_design.items()
        )
    return out
