"""Tests for the crash-point fault-injection subsystem.

Covers the acceptance bar (exhaustive 10-transaction sweeps on every
registered design with zero violations; broken mutants caught with
replayable counterexamples, and ``skip-wal`` by the WAL checker),
recovery idempotence as its own regression, budget sampling determinism,
the reachability of every instrumented crash point, and the
``repro fault-sweep`` CLI verb.
"""

import json

import pytest

from repro.analysis.walcheck import attach_wal_checker
from repro.common.bitops import WORD_BYTES
from repro.common.config import (
    CacheConfig,
    CacheLevelConfig,
    CoreConfig,
    LoggingConfig,
    NVMConfig,
    SystemConfig,
)
from repro.core.designs import available_designs, make_system
from repro.core.system import CrashInjected
from repro.faultinject import (
    CRASH_POINTS,
    CountingPlan,
    CrashAt,
    CrashSchedule,
    SweepOptions,
    replay_schedule,
    run_sweep,
)
from repro.faultinject.mutants import MUTANTS, apply_mutant
from repro.faultinject.oracle import WriteSetTracker, check_crash_state
from repro.faultinject.sweep import (
    DEFAULT_SWEEP_DESIGNS,
    DESIGN_ALIASES,
    _build,
    _drive,
    resolve_design,
)
from tests.conftest import make_tiny_system

SWEEP_DESIGNS = list(DEFAULT_SWEEP_DESIGNS)
SWEEP_ALIASES = {full: alias for alias, full in DESIGN_ALIASES.items()}


# ----------------------------------------------------------------------
# The acceptance bar: exhaustive sweeps are clean, mutants are caught
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "design", available_designs(True, True),
    # Designs with a sweep alias keep it as their test ID.
    ids=lambda design: SWEEP_ALIASES.get(design, design),
)
def test_exhaustive_sweep_is_clean(design):
    result = run_sweep(design, SweepOptions(transactions=10))
    assert result.ok, result.counterexample.format()
    assert result.checked_events == result.total_events > 0
    # Every commit leaves both a pre and a post crash point.
    assert result.per_point["commit-record"] == 10
    assert result.per_point["commit-persisted"] == 10


@pytest.mark.parametrize(
    "design,mutant",
    [
        ("morlog", "drop-undo"),
        ("undo-only", "drop-undo"),
        ("fwb", "drop-undo"),
        ("redo-only", "drop-redo"),
    ],
)
def test_mutant_caught_with_replayable_schedule(design, mutant):
    result = run_sweep(design, SweepOptions(transactions=10, mutant=mutant))
    assert not result.ok, "%s survived the %s mutant" % (design, mutant)
    cx = result.counterexample
    assert cx.violations

    # The schedule replays: a real crash (volatile state lost) at the
    # recorded index reproduces the violation on a fresh system.
    schedule = CrashSchedule.from_json(cx.schedule.to_json())
    report = replay_schedule(schedule)
    assert report.crashed
    assert report.event.point == cx.event.point
    assert report.reproduced, "counterexample did not reproduce on replay"

    # Dropping the mutant from the schedule replays clean — the bug is
    # in the mutant, not in the sweep.
    clean = CrashSchedule.from_json(
        json.dumps({**json.loads(schedule.to_json()), "mutant": None})
    )
    assert not replay_schedule(clean).violations


def test_counterexample_is_minimal():
    """Exhaustive mode checks events in order, so the first failure has
    the smallest crash index: every earlier index must replay clean."""
    result = run_sweep("morlog", SweepOptions(transactions=10, mutant="drop-undo"))
    cx = result.counterexample
    for index in range(1, cx.schedule.crash_index):
        earlier = CrashSchedule.from_json(
            json.dumps(
                {**json.loads(cx.schedule.to_json()), "crash_index": index}
            )
        )
        assert not replay_schedule(earlier).violations, (
            "crash index %d already fails; counterexample not minimal" % index
        )


def test_unknown_design_and_mutant_are_rejected():
    with pytest.raises(ValueError):
        run_sweep("no-such-design", SweepOptions(transactions=1))
    with pytest.raises(ValueError):
        run_sweep("morlog", SweepOptions(transactions=1, mutant="no-such-mutant"))
    assert resolve_design("MorLog-SLDE") == "MorLog-SLDE"
    assert set(MUTANTS) == {"drop-undo", "drop-redo", "skip-wal"}


# ----------------------------------------------------------------------
# Budget sampling
# ----------------------------------------------------------------------

def test_budget_sampling_is_deterministic():
    options = SweepOptions(transactions=10, budget=15)
    first = run_sweep("morlog", options)
    second = run_sweep("morlog", options)
    assert first.ok and second.ok
    assert first.checked_events == second.checked_events == 15
    assert first.total_events == second.total_events


def test_budget_larger_than_total_checks_everything():
    result = run_sweep("morlog", SweepOptions(transactions=4, budget=10_000))
    assert result.ok
    assert result.checked_events == result.total_events


# ----------------------------------------------------------------------
# Recovery idempotence regression (all four designs)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("design", SWEEP_DESIGNS)
def test_recovery_is_idempotent_after_midrun_crash(design):
    options = SweepOptions(transactions=8)
    system, workload, tracker = _build(design, options)
    counter = CountingPlan()
    _drive(system, workload, tracker, counter, options)

    # Crash two thirds of the way through the run, with transactions in
    # flight, and recover twice.
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
# Crash-point reachability
# ----------------------------------------------------------------------

def test_scan_and_truncation_points_fire_under_fast_fwb():
    result = run_sweep(
        "morlog",
        SweepOptions(transactions=40, fwb_interval_cycles=300),
    )
    assert result.ok, result.counterexample.format()
    for point in ("fwb-scan", "log-truncate", "data-writeback"):
        assert result.per_point.get(point, 0) > 0, point


def test_forced_writeback_point_fires_on_undo_only():
    result = run_sweep("undo-only", SweepOptions(transactions=10))
    assert result.ok
    assert result.per_point.get("forced-writeback", 0) > 0


def _manual_tx(system, plan, body):
    """Run one transaction on core 0 with ``plan`` installed."""
    tracker = WriteSetTracker()
    system.reset_measurement()
    system.trace = tracker
    system.install_crash_plan(plan)
    try:
        tx = system.begin_tx(0)
        body(system.contexts[0])
        system.end_tx(0)
        tracker.on_commit(tx.txid)
    finally:
        system.install_crash_plan(None)
        system.trace = None
    return tracker


def test_redo_drain_point_fires_and_crash_there_recovers():
    """Re-storing a word after its undo+redo entry persisted puts the
    word in ULOG state; commit then drains it as a redo entry."""
    def body(ctx):
        base = system.config.nvmm_base
        ctx.store(base, 0xAAAA)
        # Churn the 16-entry undo+redo buffer until the first entry is
        # evicted (and persisted), flipping its word to URLOG.
        for i in range(1, 24):
            ctx.store(base + i * WORD_BYTES, i)
        ctx.store(base, 0xBBBB)  # URLOG -> ULOG (redo buffered in L1)

    system = make_tiny_system("MorLog-SLDE")
    counting = CountingPlan(keep_trace=True)
    _manual_tx(system, counting, body)
    drains = [e for e in counting.trace if e.point == "redo-drain"]
    assert drains, "commit never drained a ULOG word"

    # Crash exactly at the drain boundary and verify recovery.
    system = make_tiny_system("MorLog-SLDE")
    with pytest.raises(CrashInjected):
        _manual_tx(system, CrashAt(drains[0].index), body)
    tracker = WriteSetTracker()  # no commit observed
    _state, violations = check_crash_state(system, tracker)
    assert not violations


def test_nt_store_points_fire():
    def body(ctx):
        ctx.store_nt(system.config.nvmm_base, 0x1234)

    system = make_tiny_system("MorLog-SLDE")
    counting = CountingPlan(keep_trace=True)
    _manual_tx(system, counting, body)
    points = [e.point for e in counting.trace]
    assert "tx-nt-store" in points
    assert "nt-flush" in points


def _pressure_config(**logging_overrides) -> SystemConfig:
    """Caches small enough that one transaction overflows the LLC."""
    return SystemConfig(
        cores=CoreConfig(n_cores=2),
        caches=CacheConfig(
            l1=CacheLevelConfig(512, 2, 64, 4),
            l2=CacheLevelConfig(1024, 2, 64, 12),
            l3=CacheLevelConfig(2048, 4, 64, 28, shared=True),
        ),
        nvm=NVMConfig(size_bytes=16 * 1024 * 1024),
        logging=LoggingConfig(
            log_region_bytes=256 * 1024,
            fwb_interval_cycles=200_000,
            **logging_overrides,
        ),
    )


def test_stage_release_point_fires_on_redo_only():
    system = make_system("Redo-CRADE", _pressure_config())

    def body(ctx):
        base = system.config.nvmm_base
        for i in range(64):  # 64 lines: four times the LLC
            ctx.store(base + i * 64, i + 1)

    counting = CountingPlan(keep_trace=True)
    _manual_tx(system, counting, body)
    points = [e.point for e in counting.trace]
    assert "stage-release" in points


def _same_set_body(base):
    """Store 12 lines three times, all in set 0 of every level under
    :func:`_pressure_config`: with 512-byte stride, 12 lines overflow the
    set's aggregate capacity (2 + 2 + 4 ways), so write-backs come early."""
    def body(ctx):
        for r in range(3):
            for k in range(12):
                ctx.store(base + k * 512, r * 12 + k + 1)

    return body


def test_wal_flush_point_fires_on_fwb():
    """An LLC write-back overtaking still-buffered entries forces a WAL
    flush.  Needs FWB-Unsafe (no eager eviction bound keeps entries
    buffered) plus same-set lines so write-backs come early."""
    system = make_system("FWB-Unsafe", _pressure_config())
    counting = CountingPlan(keep_trace=True)
    _manual_tx(system, counting, _same_set_body(system.config.nvmm_base))
    points = [e.point for e in counting.trace]
    assert "wal-flush" in points


@pytest.mark.parametrize("mutant, violations", [(None, 0), ("skip-wal", 28)])
def test_wal_checker_kills_skip_wal(mutant, violations):
    """Here the WAL flush does work (it forces out 28 buffered entries),
    so skipping it lets in-place write-backs overtake their entries."""
    system = make_system("FWB-Unsafe", _pressure_config())
    checker = attach_wal_checker(system)
    if mutant is not None:
        apply_mutant(system, mutant)
    system.start_run(1, lambda: None)
    system.run_transaction(0, _same_set_body(system.config.nvmm_base))
    assert len(checker.violations) == violations
    flushes = system.stats.get("wal_forced_flushes")
    skipped = system.stats.get("mutant_skipped_wal_flushes")
    assert (flushes, skipped) == ((28, 0) if mutant is None else (0, 28))


def test_all_fired_points_are_catalogued():
    """Every point any sweep fires must be a declared CRASH_POINTS name
    (CrashPlan.fire enforces this; here we pin the catalogue itself)."""
    assert len(CRASH_POINTS) == len(set(CRASH_POINTS)) == 20


# ----------------------------------------------------------------------
# The live-probe machinery: journaled recovery leaves no trace
# ----------------------------------------------------------------------

def test_journaled_probe_does_not_perturb_event_stream():
    """The in-run probe recovers against the live array; counting and
    sweeping passes must still see the identical event sequence."""
    options = SweepOptions(transactions=6)
    system, workload, tracker = _build("morlog", options)
    counting = CountingPlan(keep_trace=True)
    _drive(system, workload, tracker, counting, options)

    result = run_sweep("morlog", options)
    assert result.ok
    assert result.total_events == counting.fired
    assert result.per_point == counting.per_point


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_fault_sweep_clean(capsys):
    from repro.cli import main

    code = main(
        ["fault-sweep", "--design", "morlog", "--transactions", "4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "MorLog-SLDE" in out


def test_cli_fault_sweep_mutant_and_replay(tmp_path, capsys):
    from repro.cli import main

    schedule_file = tmp_path / "cx.json"
    code = main(
        [
            "fault-sweep",
            "--design",
            "morlog",
            "--mutant",
            "drop-undo",
            "--save",
            str(schedule_file),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "counterexample" in out
    assert schedule_file.exists()

    code = main(["fault-sweep", "--replay", str(schedule_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert "violation" in out


def test_cli_fault_sweep_budget(capsys):
    from repro.cli import main

    code = main(
        [
            "fault-sweep",
            "--design",
            "redo-only",
            "--transactions",
            "6",
            "--budget",
            "10",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "budget=10" in out
