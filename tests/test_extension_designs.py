"""Tests for the comparative persistence-design testbed.

The three extension designs — InCLL-CRADE (embedded per-line undo slots),
CoW-Page (copy-on-write shadow paging) and Ckpt-Undo (undo logging with
periodic checkpoint + compaction) — are held to the same standard as the
paper's loggers: exhaustive fault sweeps with zero violations, recovery
idempotence after a real mid-run crash, reachability of their dedicated
crash points, and bit-exact record/replay.  Plus the design registry
(``available_designs``) the CLI and sweeps now validate against, and the
``wear_imbalance`` degenerate-case regression.
"""

import pytest

from repro.common.config import LoggingConfig
from repro.common.errors import ConfigError
from repro.core.designs import (
    ABLATION_DESIGN_NAMES,
    DESIGN_NAMES,
    EXTENSION_DESIGN_NAMES,
    available_designs,
    make_system,
)
from repro.core.system import CrashInjected
from repro.faultinject.plan import CRASH_POINTS, CountingPlan, CrashAt
from repro.faultinject.sweep import (
    EXTENSION_SWEEP_DESIGNS,
    SweepOptions,
    _build,
    _drive,
    resolve_design,
    run_sweep,
    sweep_system_config,
)
from repro.nvm.endurance import EnduranceReport
from repro.replay import record_trace, replay_trace
from repro.workloads.base import WorkloadParams, make_workload
from tests.conftest import tiny_config

EXTENSIONS = list(EXTENSION_SWEEP_DESIGNS)


# ----------------------------------------------------------------------
# The design registry (single source of truth for design-name surfaces)
# ----------------------------------------------------------------------

def test_available_designs_registry():
    assert available_designs() == DESIGN_NAMES
    assert available_designs(include_ablation=True) == (
        DESIGN_NAMES + ABLATION_DESIGN_NAMES
    )
    assert available_designs(include_extensions=True) == (
        DESIGN_NAMES + EXTENSION_DESIGN_NAMES
    )
    everything = available_designs(include_ablation=True, include_extensions=True)
    assert everything == DESIGN_NAMES + ABLATION_DESIGN_NAMES + EXTENSION_DESIGN_NAMES
    assert len(everything) == len(set(everything))


def test_sweep_aliases_cover_extensions():
    assert resolve_design("incll") == "InCLL-CRADE"
    assert resolve_design("paging") == "CoW-Page"
    assert resolve_design("ckpt-undo") == "Ckpt-Undo"
    assert resolve_design("InCLL-CRADE") == "InCLL-CRADE"
    with pytest.raises(ValueError):
        resolve_design("no-such-design")


def test_cli_lists_extension_designs(capsys):
    from repro.cli import main

    assert main(["designs"]) == 0
    out = capsys.readouterr().out
    for name in DESIGN_NAMES + ABLATION_DESIGN_NAMES + EXTENSION_DESIGN_NAMES:
        assert name in out


def test_extension_crash_points_catalogued():
    for point in ("embedded-write", "page-table-write", "page-flip",
                  "log-compaction"):
        assert point in CRASH_POINTS


@pytest.mark.parametrize("name", EXTENSION_DESIGN_NAMES)
def test_extension_designs_build_and_run(name):
    system = make_system(name, tiny_config(checkpoint_interval_tx=4))
    workload = make_workload(
        "hash", WorkloadParams(initial_items=32, key_space=64, seed=5)
    )
    result = system.run(workload, 8, 2)
    assert result.transactions == 8


def test_unknown_design_rejected():
    with pytest.raises(ConfigError, match="unknown design 'FWB-Fast'"):
        make_system("FWB-Fast", tiny_config())


@pytest.mark.parametrize("design", ["InCLL-CRADE", "CoW-Page"])
def test_tx_table_truncation_rejected(design):
    with pytest.raises(ConfigError):
        make_system(design, tiny_config(truncation="tx-table"))


def test_new_logging_knobs_validated():
    with pytest.raises(ConfigError):
        tiny_config(incll_slots_per_line=0).validate()
    with pytest.raises(ConfigError):
        tiny_config(page_bytes=100).validate()
    with pytest.raises(ConfigError):
        tiny_config(page_bytes=32).validate()
    with pytest.raises(ConfigError):
        tiny_config(checkpoint_interval_tx=-1).validate()
    tiny_config(
        incll_slots_per_line=4, page_bytes=256, checkpoint_interval_tx=0
    ).validate()


# ----------------------------------------------------------------------
# The acceptance bar: exhaustive sweeps are clean on all three designs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("design", EXTENSIONS)
def test_exhaustive_sweep_is_clean(design):
    result = run_sweep(design, SweepOptions(transactions=10))
    assert result.ok, result.counterexample.format()
    assert result.checked_events == result.total_events > 0
    assert result.per_point["commit-record"] == 10
    assert result.per_point["commit-persisted"] == 10


def test_incll_points_fire():
    result = run_sweep("incll", SweepOptions(transactions=10))
    assert result.ok, result.counterexample.format()
    # Embedded entries (undo word + validating meta word, two firings
    # each) plus overflow entries through the central log.
    assert result.per_point.get("embedded-write", 0) > 0
    assert result.per_point.get("log-append", 0) > 0


def test_paging_points_fire():
    result = run_sweep("paging", SweepOptions(transactions=10))
    assert result.ok, result.counterexample.format()
    # One page-table header per shadowed page; one flip per commit.
    assert result.per_point.get("page-table-write", 0) > 0
    assert result.per_point["page-flip"] == 10


def test_checkpoint_compaction_point_fires():
    # The default interval is 8, so a 10-transaction run checkpoints once.
    result = run_sweep("ckpt-undo", SweepOptions(transactions=10))
    assert result.ok, result.counterexample.format()
    assert result.per_point.get("log-compaction", 0) == 1
    assert result.per_point.get("fwb-scan", 0) >= 2


@pytest.mark.parametrize("design", ["incll", "paging"])
def test_scan_driven_points_fire_under_fast_fwb(design):
    # Fast scans reach the epoch/watermark maintenance paths; the budget
    # keeps the probe count bounded while per-point counts stay complete.
    result = run_sweep(
        design,
        SweepOptions(transactions=40, fwb_interval_cycles=300, budget=40),
    )
    assert result.ok, result.counterexample.format()
    for point in ("fwb-scan", "log-truncate"):
        assert result.per_point.get(point, 0) > 0, point
    if design == "incll":
        # Epoch advances + open-transaction re-stamps outnumber the
        # store-driven embedded writes.
        assert result.per_point["embedded-write"] > result.per_point["tx-store"]
    else:
        # Watermark advances land on top of the per-page header writes.
        assert (
            result.per_point["page-table-write"]
            > result.per_point["data-writeback"] // 8
        )


# ----------------------------------------------------------------------
# Recovery idempotence after a real crash (volatile state lost)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("design", EXTENSIONS)
def test_recovery_is_idempotent_after_midrun_crash(design):
    options = SweepOptions(transactions=8)
    system, workload, tracker = _build(design, options)
    counter = CountingPlan()
    _drive(system, workload, tracker, counter, options)

    system, workload, tracker = _build(design, options)
    plan = CrashAt(max(1, counter.fired * 2 // 3))
    with pytest.raises(CrashInjected):
        _drive(system, workload, tracker, plan, options)

    first = system.recover(verify_decode=True)
    touched = {r.meta.addr for r in first.records}
    image = {addr: system.persistent_word(addr) for addr in touched}
    second = system.recover(verify_decode=True)
    assert second.persisted_txids == first.persisted_txids
    assert {addr: system.persistent_word(addr) for addr in touched} == image


# ----------------------------------------------------------------------
# Record/replay differential: bit-determinism of the new designs
# ----------------------------------------------------------------------

def _cell_config(design):
    # Match the sweep's CoW-Page page-size override so recorded traces
    # drive the identical machine.
    if resolve_design(design) == "CoW-Page":
        return sweep_system_config(page_bytes=256)
    return sweep_system_config()


@pytest.mark.parametrize("design", EXTENSIONS)
def test_replay_is_bit_exact(design):
    full = resolve_design(design)
    config = _cell_config(design)
    params = WorkloadParams(initial_items=48, key_space=96, seed=11)
    trace, recorded, recorded_sys = record_trace(
        full, "hash", config=config, params=params,
        n_transactions=12, n_threads=2,
    )
    replay_sys = make_system(full, config)
    replayed = replay_trace(replay_sys, trace)
    assert replayed.transactions == recorded.transactions
    assert replayed.elapsed_ns == recorded.elapsed_ns
    assert replayed.stats == recorded.stats
    image = lambda s: {
        addr: slot.logical
        for addr, slot in s.controller.nvm.array.snapshot().items()
    }
    assert image(replay_sys) == image(recorded_sys)


@pytest.mark.parametrize("design", EXTENSIONS)
def test_sweep_from_trace_equals_direct_sweep(design):
    options = SweepOptions(workload="hash", transactions=4, threads=2,
                           seed=3, budget=12)
    trace, _result, _sys = record_trace(
        resolve_design(design),
        options.workload,
        config=_cell_config(design),
        params=WorkloadParams(
            initial_items=options.initial_items,
            key_space=options.key_space,
            seed=options.seed,
        ),
        n_transactions=options.transactions,
        n_threads=options.threads,
    )
    direct = run_sweep(design, options)
    replayed = run_sweep(design, options, trace=trace)
    assert replayed.ok == direct.ok
    assert replayed.total_events == direct.total_events
    assert replayed.checked_events == direct.checked_events
    assert replayed.per_point == direct.per_point
    assert replayed.counterexample == direct.counterexample


# ----------------------------------------------------------------------
# Checkpointing shortens the recovery log
# ----------------------------------------------------------------------

def test_checkpoint_compaction_shrinks_recovery_log():
    workload_args = dict(initial_items=32, key_space=64, seed=5)
    n_tx = 16

    def recovered_records(design, **logging_overrides):
        system = make_system(design, tiny_config(**logging_overrides))
        workload = make_workload("hash", WorkloadParams(**workload_args))
        system.run(workload, n_tx, 2)
        if design == "Ckpt-Undo":
            assert system.logger.stats.get("checkpoints") > 0
            assert system.logger.stats.get("checkpoint_compacted_entries") > 0
        return len(system.recover().records)

    baseline = recovered_records("Undo-CRADE")
    compacted = recovered_records("Ckpt-Undo", checkpoint_interval_tx=4)
    assert compacted < baseline

    # A tighter interval can only leave the log shorter (more frequent
    # compaction), never longer.
    tighter = recovered_records("Ckpt-Undo", checkpoint_interval_tx=2)
    assert tighter <= compacted


def test_checkpoint_interval_zero_disables_checkpoints():
    system = make_system("Ckpt-Undo", tiny_config(checkpoint_interval_tx=0))
    workload = make_workload(
        "hash", WorkloadParams(initial_items=32, key_space=64, seed=5)
    )
    system.run(workload, 12, 2)
    assert system.logger.stats.get("checkpoints") == 0
    assert not system.logger._committed


def _run_ckpt_undo(n_threads, plan=None):
    system = make_system("Ckpt-Undo", tiny_config())
    if plan is not None:
        system.install_crash_plan(plan)
    system.run(make_workload("hash", WorkloadParams()), 800, n_threads)
    return system


@pytest.mark.parametrize("n_threads", [2, 4])
def test_checkpoint_forgets_compacted_transactions(n_threads):
    # Compaction leaves no entry of a checkpointed transaction in the
    # log, so the logger keeps at most one interval's txids.
    logger = _run_ckpt_undo(n_threads).logger
    assert logger.stats.get("checkpoints") == 100
    assert len(logger._committed) <= tiny_config().logging.checkpoint_interval_tx


def test_checkpoint_covered_counts_every_commit_so_far():
    plan = CountingPlan(keep_trace=True)
    _run_ckpt_undo(2, plan)
    covered = [
        event.detail_dict()["covered"]
        for event in plan.trace
        if event.point == "log-compaction"
    ]
    assert covered == list(range(8, 801, 8))


# ----------------------------------------------------------------------
# Mechanism-specific traffic shapes
# ----------------------------------------------------------------------

def test_incll_embeds_then_overflows():
    # One slot per line forces the second distinct word in a line into
    # the overflow log.
    system = make_system("InCLL-CRADE", tiny_config(incll_slots_per_line=1))
    base = system.config.nvmm_base

    def body(ctx):
        for w in range(3):
            ctx.store(base + w * 8, w + 1)

    tx = system.begin_tx(0)
    body(system.contexts[0])
    system.end_tx(0)
    assert tx.committed
    assert system.logger.stats.get("embedded_entries") == 1
    assert system.logger.stats.get("incll_overflows") == 2


def test_paging_write_amplification_grows_with_page_size():
    def shadow_lines(page_bytes):
        system = make_system("CoW-Page", tiny_config(page_bytes=page_bytes))
        workload = make_workload(
            "hash", WorkloadParams(initial_items=32, key_space=64, seed=5)
        )
        system.run(workload, 8, 2)
        copies = system.logger.stats.get("shadow_page_copies")
        lines = system.logger.stats.get("shadow_lines_written")
        assert copies > 0
        assert lines == copies * (page_bytes // 64)
        return lines

    assert shadow_lines(1024) > shadow_lines(256)


# ----------------------------------------------------------------------
# Endurance wear-imbalance degenerate case (regression)
# ----------------------------------------------------------------------

def _report(max_wear, mean_wear):
    return EnduranceReport(
        total_cell_programs=max_wear,
        words_touched=1 if max_wear else 0,
        max_word_wear=max_wear,
        mean_word_wear=mean_wear,
        cell_endurance=1e8,
    )


def test_wear_imbalance_zero_mean_nonzero_max_is_unbounded():
    assert _report(5, 0.0).wear_imbalance == float("inf")


def test_wear_imbalance_untouched_array_is_level():
    assert _report(0, 0.0).wear_imbalance == 1.0


def test_wear_imbalance_normal_ratio():
    assert _report(6, 2.0).wear_imbalance == 3.0
