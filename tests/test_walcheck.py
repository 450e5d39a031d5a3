"""Online WAL-ordering checker tests.

Every design must keep undo data ahead of in-place writes; the checker
watches a live run.  A synthetic violation confirms the monitor actually
detects what it claims to.
"""

import pytest

from repro.analysis.walcheck import WalChecker, attach_wal_checker
from repro.core.designs import DESIGN_NAMES, make_system
from repro.logging_hw.entries import CommitRecord, EntryType, LogEntry
from repro.workloads.base import WorkloadParams, make_workload
from tests.conftest import make_tiny_system, tiny_config

PARAMS = WorkloadParams(initial_items=512, key_space=1024, seed=6)


@pytest.mark.parametrize("design", DESIGN_NAMES)
def test_no_wal_violations_during_runs(design):
    # Frequent force-write-back scans push in-place data to NVMM while
    # transactions are in flight — the risky window the checker guards.
    system = make_system(design, tiny_config(fwb_interval_cycles=2_000))
    checker = attach_wal_checker(system)
    workload = make_workload("hash", PARAMS)
    system.run(workload, 200, n_threads=2)
    assert checker.checked_writes > 0, "no in-place writes were checked"
    checker.assert_clean()


def test_checker_detects_synthetic_violation():
    checker = WalChecker()
    checker.on_tx_store(0, 1, 0x100, old=5, new=9)
    # In-place write changes the word before any undo append.
    checker.on_data_write(0x100 - 0x100 % 64, [9] + [0] * 7)
    assert len(checker.violations) == 1
    with pytest.raises(AssertionError):
        checker.assert_clean()


def test_checker_accepts_pre_tx_value_writes():
    checker = WalChecker()
    checker.on_tx_store(0, 1, 0x100, old=5, new=9)
    # Writing back the *old* value is harmless (nothing lost on crash).
    checker.on_data_write(0x100 - 0x100 % 64, [5] + [0] * 7)
    checker.assert_clean()


def test_checker_clears_on_undo_append():
    checker = WalChecker()
    checker.on_tx_store(0, 1, 0x100, old=5, new=9)
    entry = LogEntry(EntryType.UNDO_REDO, 0, 1, 0x100, 9, 5)
    checker.on_log_append(entry)
    checker.on_data_write(0x100 - 0x100 % 64, [9] + [0] * 7)
    checker.assert_clean()


def test_checker_clears_on_commit():
    checker = WalChecker()
    checker.on_tx_store(0, 1, 0x100, old=5, new=9)
    checker.on_log_append(CommitRecord(tid=0, txid=1))
    checker.on_data_write(0x100 - 0x100 % 64, [9] + [0] * 7)
    checker.assert_clean()


def test_checker_forwards_to_composed_trace():
    class Sink:
        def __init__(self):
            self.calls = []

        def on_tx_store(self, *args):
            self.calls.append(args)

    sink = Sink()
    checker = WalChecker(forward_to=sink)
    checker.on_tx_store(0, 1, 0x100, 5, 9)
    assert sink.calls == [(0, 1, 0x100, 5, 9)]


def test_attach_to_distributed_logs():
    system = make_system("MorLog-SLDE", tiny_config(distributed_logs=True))
    checker = attach_wal_checker(system)
    workload = make_workload("queue", PARAMS)
    system.run(workload, 80, n_threads=4)
    checker.assert_clean()
