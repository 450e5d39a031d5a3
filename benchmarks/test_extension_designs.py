"""Comparative persistence testbed: the extension designs, measured.

The three extension designs answer the same question the paper's loggers
do — how to make stores atomic on NVMM — with different machinery:
InCLL embeds undo words in the cache line itself, CoW paging persists a
shadow copy of every dirtied page, and checkpointing compacts the undo
log at commit boundaries.  This bench pins their signature costs against
the central-log baselines: InCLL's two-word embedded entries write fewer
log bits than the three-slot central undo log, paging amplifies data
writes by the page/line ratio under small transactions, and
checkpointing shrinks the log a recovery scan must walk.
"""

from benchmarks.bench_util import emit
from benchmarks.conftest import BENCH_SCALE, run_once
from repro.analysis.report import format_table
from repro.bench import INFO, LOWER, record
from repro.common.config import LoggingConfig, SystemConfig
from repro.experiments.parallel import resolve_cell, run_cell
from repro.experiments.runner import run_design
from repro.workloads.base import DatasetSize, WorkloadParams

DESIGNS = ("Undo-CRADE", "FWB-CRADE", "InCLL-CRADE", "CoW-Page", "Ckpt-Undo")
PARAMS = WorkloadParams(initial_items=512, key_space=1024)
N_TX = BENCH_SCALE.transactions(False, DatasetSize.SMALL)
# A checkpoint cadence that does not divide the transaction count, so
# the post-run log keeps the (nonzero) tail since the last checkpoint.
CKPT_INTERVAL = 7


def _config(**logging_overrides) -> SystemConfig:
    logging_overrides.setdefault("log_region_bytes", 8 * 1024 * 1024)
    return SystemConfig(logging=LoggingConfig(**logging_overrides))


def _cell_config(design: str) -> SystemConfig:
    # Match the fault-sweep builder: paging runs on 256-byte pages so the
    # shadow-copy cost reflects a small-page design point, not the 4 KiB
    # worst case.
    if design == "CoW-Page":
        return _config(page_bytes=256)
    return _config()


def test_extension_designs(benchmark):
    def experiment():
        runs = {
            design: run_design(
                design,
                "hash",
                DatasetSize.SMALL,
                config=_cell_config(design),
                params=PARAMS,
                n_transactions=N_TX,
                n_threads=4,
            )
            for design in DESIGNS
        }
        # Recovery-log footprint: the records a post-crash scan walks,
        # with and without checkpoint compaction.
        log_records = {}
        for interval in (0, CKPT_INTERVAL):
            _, system = run_cell(resolve_cell(
                "Ckpt-Undo",
                "hash",
                DatasetSize.SMALL,
                config=_config(checkpoint_interval_tx=interval),
                params=PARAMS,
                n_transactions=N_TX,
                n_threads=4,
            ))
            log_records[interval] = len(system.recover().records)
        return runs, log_records

    runs, log_records = run_once(benchmark, experiment)
    undo = runs["Undo-CRADE"]
    rows = [
        [
            design,
            runs[design].throughput_tx_per_s / undo.throughput_tx_per_s,
            runs[design].nvmm_writes / undo.nvmm_writes,
            runs[design].log_bits,
            int(runs[design].stats.get("data_writes", 0)),
        ]
        for design in DESIGNS
    ]
    incll_log_bits_ratio = runs["InCLL-CRADE"].log_bits / undo.log_bits
    paging_amplification = runs["CoW-Page"].stats["data_writes"] / undo.stats[
        "data_writes"
    ]
    ckpt_ratio = log_records[CKPT_INTERVAL] / log_records[0]
    emit(
        "extension_designs",
        format_table(
            ["design", "throughput", "NVMM writes", "log bits", "data writes"],
            rows,
            "Extension designs vs Undo-CRADE (hash, small)",
        )
        + "\nrecovery log records: no checkpoint=%d, interval %d=%d (%.3fx)\n"
        % (log_records[0], CKPT_INTERVAL, log_records[CKPT_INTERVAL], ckpt_ratio),
        records=[
            record(
                "extension_designs",
                "incll_vs_undo_log_bits_ratio",
                incll_log_bits_ratio,
                unit="ratio",
                direction=LOWER,
            ),
            record(
                "extension_designs",
                "paging_data_write_amplification",
                paging_amplification,
                unit="ratio",
                direction=LOWER,
            ),
            record(
                "extension_designs",
                "ckpt_recovery_log_ratio",
                ckpt_ratio,
                unit="ratio",
                direction=LOWER,
            ),
            record(
                "extension_designs",
                "cow_vs_undo_write_ratio",
                runs["CoW-Page"].nvmm_writes / undo.nvmm_writes,
                unit="ratio",
                direction=INFO,
            ),
            record(
                "extension_designs",
                "incll_vs_undo_write_ratio",
                runs["InCLL-CRADE"].nvmm_writes / undo.nvmm_writes,
                unit="ratio",
                direction=INFO,
            ),
        ],
    )
    # Embedded two-word entries carry less log payload than the central
    # log's three-slot entries.
    assert incll_log_bits_ratio < 1.0
    # Page-granular shadow copies amplify data writes well past the
    # word-granular designs under small transactions.
    assert paging_amplification > 2.0
    # Compaction strictly shrinks what recovery has to scan.
    assert log_records[CKPT_INTERVAL] < log_records[0]
