"""Tests for the section III-F extensions: distributed logs and
non-temporal stores."""

import pytest

from repro.core.designs import make_system
from repro.core.system import CrashInjected
from repro.faultinject import CrashAtTxPoint
from repro.logging_hw.region import LogRegionSet
from repro.workloads.base import WorkloadParams, make_workload
from tests.conftest import make_tiny_system, tiny_config


class TestDistributedLogs:
    def _system(self, design="MorLog-SLDE"):
        return make_system(design, tiny_config(distributed_logs=True))

    def test_region_set_built(self):
        system = self._system()
        assert isinstance(system.log_region, LogRegionSet)
        assert len(system.log_region.regions) == system.config.cores.n_cores

    def test_appends_route_by_tid(self):
        system = self._system()
        base = system.config.nvmm_base
        for core in (0, 1):
            system.begin_tx(core)
            system.store_word(core, base + core * 4096, 1)
            system.end_tx(core)
        regions = system.log_region.regions
        assert regions[0].used_slots() > 0
        assert regions[1].used_slots() > 0

    def test_workload_runs_and_recovers(self):
        system = self._system()
        workload = make_workload(
            "hash", WorkloadParams(initial_items=24, key_space=64, seed=1)
        )
        system.run(workload, 60, n_threads=4)
        state = system.recover(verify_decode=True)
        assert len(state.persisted_txids) == 60

    @pytest.mark.parametrize("design", ["MorLog-SLDE", "MorLog-DP", "FWB-CRADE"])
    def test_crash_consistency_across_thread_logs(self, design):
        from tests.test_crash_recovery import WriteSetTap

        config = tiny_config(distributed_logs=True)
        system = make_system(design, config)
        workload = make_workload(
            "hash", WorkloadParams(initial_items=32, key_space=64, seed=3)
        )
        workload.setup(system, 4)
        system.reset_measurement()
        tap = WriteSetTap()
        system.trace = tap
        system.install_crash_plan(CrashAtTxPoint(300))
        committed = []
        try:
            while True:
                core = min(range(4), key=system.core_time_ns.__getitem__)
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

        state = system.recover(verify_decode=True)
        if not config.logging.delay_persistence and "DP" not in design:
            assert set(committed) <= state.persisted_txids
        # All-or-nothing per transaction.
        expected = {}
        for txid in sorted(tap.tx_writes):
            for addr, (old, new) in tap.tx_writes[txid].items():
                if txid in state.persisted_txids:
                    expected[addr] = new
                elif addr not in expected:
                    expected[addr] = old
        for addr, value in expected.items():
            assert system.persistent_word(addr) == value


class TestNonTemporalStores:
    def test_nt_store_outside_tx_writes_through(self):
        system = make_tiny_system()
        addr = system.config.nvmm_base
        system.store_word_nt(0, addr, 0x77)
        assert system.persistent_word(addr) == 0x77

    def test_nt_store_in_tx_staged_until_commit(self):
        system = make_tiny_system()
        addr = system.config.nvmm_base
        system.begin_tx(0)
        system.store_word_nt(0, addr, 0x99)
        # Pre-commit: NVMM still holds the old value...
        assert system.persistent_word(addr) == 0
        # ...but the transaction reads its own write.
        assert system.load_word(0, addr) == 0x99
        system.end_tx(0)
        assert system.persistent_word(addr) == 0x99

    def test_nt_store_logged_redo_only(self):
        system = make_tiny_system()
        addr = system.config.nvmm_base
        system.begin_tx(0)
        system.store_word_nt(0, addr, 0x42)
        system.end_tx(0)
        records = system.recover(verify_decode=False).records
        redo = [r for r in records if r.meta.type.name == "REDO"]
        assert len(redo) == 1 and redo[0].redo == 0x42
        assert not [r for r in records if r.meta.type.name == "UNDO_REDO"]

    def test_uncommitted_nt_store_vanishes_on_crash(self):
        system = make_tiny_system()
        addr = system.config.nvmm_base
        system.setup_store(addr, 0xAA)
        system.reset_measurement()
        system.begin_tx(0)
        system.store_word_nt(0, addr, 0xBB)
        # Crash before commit: staging is volatile.
        system.current_tx[0] = None
        state = system.recover(verify_decode=True)
        assert not state.persisted_txids
        assert system.persistent_word(addr) == 0xAA

    def test_committed_nt_store_survives_crash_before_staging_flush(self):
        """Crash between commit record and the staged NVMM writes."""
        system = make_tiny_system()
        addr = system.config.nvmm_base
        tx = system.begin_tx(0)
        system.store_word_nt(0, addr, 0x55)
        # Commit the log side but "lose power" before _flush_nt_staging.
        system.logger.commit_tx(tx, system.core_time_ns[0])
        system.current_tx[0] = None
        system._nt_staging.clear()
        state = system.recover(verify_decode=True)
        assert state.persisted_txids == {tx.txid}
        assert system.persistent_word(addr) == 0x55

    def test_nt_store_flushes_cached_copy(self):
        system = make_tiny_system()
        addr = system.config.nvmm_base
        system.store_word(0, addr + 8, 7)  # cache the line, dirty it
        system.begin_tx(0)
        system.store_word_nt(0, addr, 9)
        system.end_tx(0)
        # Both the cached word and the NT word must be persistent.
        assert system.persistent_word(addr + 8) == 7
        assert system.persistent_word(addr) == 9

    def test_nt_store_under_dp_commit(self):
        system = make_tiny_system("MorLog-DP")
        addr = system.config.nvmm_base
        system.begin_tx(0)
        system.store_word_nt(0, addr, 0x66)
        system.end_tx(0)
        state = system.recover(verify_decode=True)
        # NT redo entries flush ahead of the commit record even under DP,
        # so the transaction counts as persisted.
        assert state.persisted_txids
        assert system.persistent_word(addr) == 0x66

    def test_fwb_nt_store(self):
        system = make_tiny_system("FWB-CRADE")
        addr = system.config.nvmm_base
        system.begin_tx(0)
        system.store_word_nt(0, addr, 0x33)
        system.end_tx(0)
        assert system.persistent_word(addr) == 0x33
        state = system.recover(verify_decode=True)
        assert system.persistent_word(addr) == 0x33
