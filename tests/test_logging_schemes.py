"""Undo-only and redo-only logging baselines (Figure 1's taxonomy)."""

import pytest

from repro.core.designs import ABLATION_DESIGN_NAMES, make_system
from repro.core.system import CrashInjected
from repro.faultinject import CrashAtTxPoint
from repro.workloads.base import WorkloadParams, make_workload
from tests.conftest import tiny_config

PARAMS = WorkloadParams(initial_items=32, key_space=64, seed=12)


def build(name):
    return make_system(name, tiny_config())


class TestUndoOnly:
    def test_runs_and_recovers(self):
        system = build("Undo-CRADE")
        workload = make_workload("hash", PARAMS)
        result = system.run(workload, 60, n_threads=2)
        assert result.transactions == 60
        state = system.recover(verify_decode=True)
        assert len(state.persisted_txids) == 60

    def test_commit_forces_data_write_back(self):
        system = build("Undo-CRADE")
        base = system.config.nvmm_base
        system.begin_tx(0)
        system.store_word(0, base, 0x99)
        system.end_tx(0)
        # Figure 1(c): the updated data are persistent at commit, without
        # any drain.
        assert system.persistent_word(base) == 0x99
        assert system.stats.get("forced_data_write_backs") >= 1

    def test_crash_mid_tx_rolls_back_with_undo(self):
        system = build("Undo-CRADE")
        base = system.config.nvmm_base
        system.setup_store(base, 0xAA)
        system.reset_measurement()
        system.begin_tx(0)
        system.store_word(0, base, 0xBB)
        # Force the dirty line to NVMM pre-commit (allowed: undo first).
        system.hierarchy.write_back_line(base, system.core_time_ns[0])
        assert system.persistent_word(base) == 0xBB
        system.current_tx[0] = None  # crash
        state = system.recover(verify_decode=True)
        assert not state.committed_txids
        assert system.persistent_word(base) == 0xAA

    def test_committed_tx_needs_no_redo(self):
        system = build("Undo-CRADE")
        base = system.config.nvmm_base
        system.begin_tx(0)
        system.store_word(0, base, 7)
        system.end_tx(0)
        state = system.recover(verify_decode=True)
        assert state.redone_words == 0
        assert system.persistent_word(base) == 7


class TestRedoOnly:
    def test_runs_and_recovers(self):
        system = build("Redo-CRADE")
        workload = make_workload("hash", PARAMS)
        result = system.run(workload, 60, n_threads=2)
        assert result.transactions == 60
        state = system.recover(verify_decode=True)
        assert len(state.persisted_txids) == 60

    def test_inflight_write_back_is_diverted(self):
        system = build("Redo-CRADE")
        base = system.config.nvmm_base
        system.begin_tx(0)
        system.store_word(0, base, 0x55)
        # Evicting the line mid-transaction must not touch NVMM.
        line = system.hierarchy.l1s[0].lookup(base, touch=False)
        system.hierarchy._write_back(line, system.core_time_ns[0])
        assert system.persistent_word(base) == 0
        assert system.stats.get("staged_write_backs") == 1
        assert system.logger.stage  # staged in DRAM
        system.end_tx(0)
        assert system.persistent_word(base) == 0x55  # released at commit

    def test_staged_line_readable_through_interceptor(self):
        system = build("Redo-CRADE")
        base = system.config.nvmm_base
        system.begin_tx(0)
        system.store_word(0, base, 0x42)
        line = system.hierarchy.l1s[0].lookup(base, touch=False)
        system.hierarchy._write_back(line, system.core_time_ns[0])
        system.hierarchy.l1s[0].remove(base)
        system.hierarchy._owner.pop(base, None)
        # A refetch must see the staged value, not stale NVMM.
        assert system.load_word(0, base) == 0x42
        system.end_tx(0)

    def test_crash_mid_tx_leaves_nvmm_untouched(self):
        system = build("Redo-CRADE")
        base = system.config.nvmm_base
        system.setup_store(base, 0x11)
        system.reset_measurement()
        system.begin_tx(0)
        system.store_word(0, base, 0x22)
        line = system.hierarchy.l1s[0].lookup(base, touch=False)
        system.hierarchy._write_back(line, system.core_time_ns[0])
        system.current_tx[0] = None  # crash; the stage is volatile
        system.logger.stage.clear()
        state = system.recover(verify_decode=True)
        assert state.undone_words == 0  # nothing to roll back
        assert system.persistent_word(base) == 0x11

    def test_committed_tx_rolls_forward_from_redo(self):
        system = build("Redo-CRADE")
        base = system.config.nvmm_base
        system.begin_tx(0)
        system.store_word(0, base, 9)
        system.end_tx(0)
        # Crash before any cache write-back: the redo log carries it.
        state = system.recover(verify_decode=True)
        assert state.redone_words >= 1
        assert system.persistent_word(base) == 9


@pytest.mark.parametrize("design", ABLATION_DESIGN_NAMES)
def test_crash_consistency_matrix(design):
    from tests.test_crash_recovery import WriteSetTap

    system = make_system(design, tiny_config())
    workload = make_workload("hash", PARAMS)
    workload.setup(system, 2)
    system.reset_measurement()
    tap = WriteSetTap()
    system.trace = tap
    system.install_crash_plan(CrashAtTxPoint(250))
    committed = []
    try:
        while True:
            core = min(range(2), key=system.core_time_ns.__getitem__)
            body = workload.transaction(core)
            tx = system.begin_tx(core)
            try:
                body(system.contexts[core])
            except CrashInjected:
                system.current_tx[core] = None
                raise
            system.end_tx(core)
            committed.append(tx.txid)
    except CrashInjected:
        pass
    # The volatile stage dies with the machine.
    if hasattr(system.logger, "stage"):
        system.logger.stage.clear()
    state = system.recover(verify_decode=True)
    assert set(committed) <= state.persisted_txids
    expected = {}
    for txid in sorted(tap.tx_writes):
        for addr, (old, new) in tap.tx_writes[txid].items():
            if txid in state.persisted_txids:
                expected[addr] = new
            elif addr not in expected:
                expected[addr] = old
    mismatches = [
        hex(addr) for addr, value in expected.items()
        if system.persistent_word(addr) != value
    ]
    assert not mismatches, "%s corrupted %d words" % (design, len(mismatches))
