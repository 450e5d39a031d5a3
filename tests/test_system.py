"""System assembly, run loop, design factory and config tests."""

import copy

import pytest

from repro.common.config import LoggingConfig, SystemConfig
from repro.common.errors import ConfigError
from repro.core.designs import DESIGN_NAMES, available_designs, make_system
from repro.logging_hw.fwb import FwbLogger
from repro.logging_hw.morlog import MorLogLogger
from repro.workloads.base import WorkloadParams, make_workload
from tests.conftest import make_tiny_system, tiny_config


class TestConfig:
    def test_default_validates(self):
        SystemConfig().validate()

    def test_bad_watermark_rejected(self):
        from dataclasses import replace

        config = SystemConfig()
        bad = config.with_changes(nvm=replace(config.nvm, drain_watermark=1.5))
        with pytest.raises(ConfigError):
            bad.validate()

    def test_bad_codec_rejected(self):
        from dataclasses import replace

        config = SystemConfig()
        bad = config.with_changes(
            encoding=replace(config.encoding, data_codec="lz4")
        )
        with pytest.raises(ConfigError):
            bad.validate()

    def test_table_iii_cache_sizes(self):
        config = SystemConfig()
        assert config.caches.l1.size_bytes == 32 * 1024
        assert config.caches.l2.size_bytes == 256 * 1024
        assert config.caches.l3.size_bytes == 8 * 1024 * 1024
        assert (config.caches.l1.latency_cycles,
                config.caches.l2.latency_cycles,
                config.caches.l3.latency_cycles) == (4, 12, 28)

    def test_table_iii_memory_geometry(self):
        config = SystemConfig()
        assert config.nvm.channels == 4
        assert config.nvm.banks == 8
        assert config.nvm.write_queue_entries == 64
        assert config.nvm.drain_watermark == 0.8
        assert config.nvm.read_latency_ns == 25.0

    def test_default_buffer_sizes(self):
        config = SystemConfig()
        assert config.logging.undo_redo_buffer_entries == 16
        assert config.logging.redo_buffer_entries == 32


class TestDesignFactory:
    def test_all_designs_buildable(self):
        for name in DESIGN_NAMES:
            system = make_system(name, tiny_config())
            assert system.design_name == name

    def test_fwb_designs_use_fwb_logger(self):
        assert isinstance(make_system("FWB-CRADE", tiny_config()).logger, FwbLogger)
        assert isinstance(make_system("FWB-SLDE", tiny_config()).logger, FwbLogger)

    def test_morlog_designs_use_morlog_logger(self):
        assert isinstance(
            make_system("MorLog-SLDE", tiny_config()).logger, MorLogLogger
        )

    def test_unsafe_buffer_size(self):
        system = make_system("FWB-Unsafe", tiny_config())
        assert system.logger.buffer.capacity == 16 + 32
        assert not system.logger.eager

    def test_codec_assignment(self):
        assert make_system("FWB-CRADE", tiny_config()).config.encoding.log_codec == "crade"
        assert make_system("MorLog-SLDE", tiny_config()).config.encoding.log_codec == "slde"

    def test_dp_flag(self):
        assert make_system("MorLog-DP", tiny_config()).config.logging.delay_persistence
        assert not make_system("MorLog-SLDE", tiny_config()).config.logging.delay_persistence

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigError):
            make_system("MorLog-Turbo", tiny_config())


class TestSystemBasics:
    def test_load_reads_setup_value(self):
        system = make_tiny_system()
        addr = system.config.nvmm_base
        system.setup_store(addr, 99)
        assert system.load_word(0, addr) == 99

    def test_store_visible_to_load(self):
        system = make_tiny_system()
        addr = system.config.nvmm_base
        system.store_word(0, addr, 5)
        assert system.load_word(0, addr) == 5

    def test_clock_advances(self):
        system = make_tiny_system()
        system.load_word(0, system.config.nvmm_base)
        assert system.core_time_ns[0] > 0

    def test_dram_routing(self):
        system = make_tiny_system()
        dram_addr = 0x1000
        assert not system.controller.is_persistent(dram_addr)
        system.store_word(0, dram_addr, 3)
        system.hierarchy.drain_all(system.core_time_ns[0])
        assert system.controller.dram.read_word(dram_addr) == 3

    @pytest.mark.parametrize("design", available_designs(True, True))
    def test_each_nt_store_counts_once(self, design):
        system = make_tiny_system(design)
        base = system.config.nvmm_base
        system.begin_tx(0)
        system.store_word_nt(0, base, 1)
        system.store_word_nt(0, base + 0x40, 2)
        assert system.stats.get("nt_stores") == 2
        system.end_tx(0)
        outside = make_tiny_system(design)
        outside.store_word_nt(0, base, 3)
        assert outside.stats.get("nt_stores") == 1

    def test_nested_tx_flattened(self):
        system = make_tiny_system()
        tx1 = system.begin_tx(0)
        tx2 = system.begin_tx(0)
        assert tx1 is tx2
        assert system.stats.get("nested_tx_flattened") == 1
        system.end_tx(0)

    def test_end_without_begin_rejected(self):
        system = make_tiny_system()
        with pytest.raises(RuntimeError):
            system.end_tx(0)

    def test_reset_measurement_clears(self):
        system = make_tiny_system()
        system.store_word(0, system.config.nvmm_base, 1)
        system.reset_measurement()
        assert system.stats.get("stores") == 0
        assert system.core_time_ns[0] == 0.0

    def test_reset_measurement_clears_run_loop_state(self):
        system = make_tiny_system()
        addr = system.config.nvmm_base
        tx = system.begin_tx(0)
        system.store_word(0, addr, 1)
        system.end_tx(0)
        system._run_fwb_scan(system.core_time_ns[0])
        assert system._scans_done > 0 and system._commit_epoch
        system._nt_staging[(0, tx.txid)] = {addr: 5}
        system._pending_lines[tx.txid] = {addr}
        system._line_txs[addr] = {tx.txid}
        system.reset_measurement()
        assert system._scans_done == 0
        assert system._next_fwb_ns == system._fwb_interval_ns
        assert not system._commit_epoch
        assert not system._nt_staging
        assert not system._pending_lines
        assert not system._line_txs


class TestRunLoop:
    def test_run_returns_metrics(self):
        system = make_tiny_system()
        workload = make_workload(
            "queue", WorkloadParams(initial_items=16, key_space=64)
        )
        result = system.run(workload, 30, n_threads=2)
        assert result.transactions == 30
        assert result.elapsed_ns > 0
        assert result.throughput_tx_per_s > 0
        assert result.nvmm_writes > 0

    def test_threads_balanced(self):
        system = make_tiny_system()
        workload = make_workload(
            "sps", WorkloadParams(initial_items=32, key_space=64)
        )
        system.run(workload, 40, n_threads=4)
        times = system.core_time_ns[:4]
        assert max(times) > 0
        assert min(times) > 0.3 * max(times)  # min-time dispatch balances

    def test_too_many_threads_rejected(self):
        system = make_tiny_system()
        workload = make_workload("queue")
        with pytest.raises(ValueError):
            system.run(workload, 5, n_threads=64)

    def test_zero_threads_rejected_not_coerced(self):
        # Regression: ``n_threads=0`` used to fall through an ``or`` and
        # silently run on all cores, skewing per-thread scaling curves.
        system = make_tiny_system()
        workload = make_workload(
            "queue", WorkloadParams(initial_items=16, key_space=64)
        )
        with pytest.raises(ValueError, match="n_threads"):
            system.run(workload, 5, n_threads=0)
        with pytest.raises(ValueError, match="n_threads"):
            system.run(workload, 5, n_threads=-2)
        # ``None`` still means "all cores" explicitly.
        result = system.run(workload, 8, n_threads=None)
        assert result.transactions == 8
        assert all(t > 0 for t in system.core_time_ns)

    def test_fwb_scan_triggers_and_truncates(self):
        system = make_tiny_system(fwb_interval_cycles=1_500)
        workload = make_workload(
            "hash", WorkloadParams(initial_items=32, key_space=64)
        )
        system.run(workload, 150, n_threads=2)
        assert system.stats.get("fwb_scans") >= 2
        assert system.stats.get("entries_truncated") > 0

    def test_log_overflow_recovers_via_emergency_scan(self):
        system = make_tiny_system(log_region_bytes=8192)
        workload = make_workload(
            "hash", WorkloadParams(initial_items=16, key_space=32)
        )
        result = system.run(workload, 120, n_threads=2)
        assert result.transactions == 120
        assert system.stats.get("log_overflow_scans") > 0

    def test_deterministic_across_runs(self):
        def run_once():
            system = make_tiny_system()
            workload = make_workload(
                "btree", WorkloadParams(initial_items=32, key_space=128, seed=5)
            )
            return system.run(workload, 50, n_threads=2)

        a, b = run_once(), run_once()
        assert a.elapsed_ns == b.elapsed_ns
        assert a.nvmm_writes == b.nvmm_writes
        assert a.stats == b.stats


def queue_workload():
    return make_workload(
        "queue", WorkloadParams(initial_items=16, key_space=64)
    )


def commit_words(system, n_words):
    """One transaction on core 0 storing 1..n to consecutive NVM words."""
    base = system.config.nvmm_base
    addrs = [base + 8 * i for i in range(n_words)]
    system.begin_tx(0)
    for value, addr in enumerate(addrs, start=1):
        system.store_word(0, addr, value)
    system.end_tx(0)
    return addrs


class TestRunFrame:
    """start_run / measured / drain: the frame every driver runs in."""

    @pytest.mark.parametrize("n_threads", [0, 5])
    def test_bad_thread_count_rejected_before_setup(self, n_threads):
        system = make_tiny_system()  # 4 cores
        calls = []
        with pytest.raises(ValueError):
            system.start_run(n_threads, lambda: calls.append(1))
        assert calls == []

    def test_setup_runs_before_reset_measurement(self):
        # An instance replacement of reset_measurement must be the one the
        # open call reaches, after the caller's set-up.
        system = make_tiny_system()
        order = []
        reset = system.reset_measurement

        def recording_reset():
            order.append("reset")
            reset()

        system.reset_measurement = recording_reset
        system.start_run(2, lambda: order.append("setup"))
        assert order == ["setup", "reset"]

    def test_setup_work_is_not_measured(self):
        system = make_tiny_system()
        addr = system.config.nvmm_base
        system.start_run(2, lambda: system.store_word(0, addr, 7))
        assert system.stats.get("stores") == 0
        assert system.core_time_ns == [0.0] * system.config.cores.n_cores
        assert system.coherent_word(addr) == 7

    def test_second_run_is_refused_before_setup(self):
        system = make_tiny_system()
        params = WorkloadParams(initial_items=16, key_space=64)
        first = system.run(make_workload("queue", params), 30, n_threads=2)
        result_before = copy.deepcopy(first)
        machine_before = (system.stats.as_dict(), list(system.core_time_ns))
        second = make_workload("queue", params)
        setups = []
        second.setup = lambda *args: setups.append(args)
        with pytest.raises(RuntimeError, match="make_system"):
            system.run(second, 30, n_threads=2)
        assert setups == []
        assert first == result_before
        assert (system.stats.as_dict(), system.core_time_ns) == machine_before

    def test_measured_times_only_active_cores(self):
        system = make_tiny_system()
        system.start_run(2, lambda: None)
        system.core_time_ns[1] = 40.0
        system.core_time_ns[3] = 99.0  # an idle core's clock is not the run's
        result = system.measured(5)
        assert result.transactions == 5
        assert result.elapsed_ns == 40.0

    def test_measured_is_a_snapshot_the_drain_leaves_alone(self):
        system = make_tiny_system()
        system.start_run(1, lambda: None)
        commit_words(system, 8)
        result = system.measured(1)
        before = dict(result.stats)
        system.drain(result.elapsed_ns)
        assert result.stats == before
        assert system.stats.as_dict() != before  # the drain wrote back

    def test_drain_persists_every_dirty_line(self):
        system = make_tiny_system()
        system.start_run(1, lambda: None)
        addrs = commit_words(system, 8)
        assert any(
            system.persistent_word(a) != v for v, a in enumerate(addrs, 1)
        )
        system.drain(system.core_time_ns[0])
        assert [system.persistent_word(a) for a in addrs] == list(
            range(1, len(addrs) + 1)
        )

    @pytest.mark.parametrize(
        "policy, emptied", [("tx-table", True), ("fwb-scan", False)]
    )
    def test_drain_frees_the_log_only_under_the_tx_table(self, policy, emptied):
        system = make_tiny_system(truncation=policy)
        system.start_run(1, lambda: None)
        commit_words(system, 8)
        system.drain(system.core_time_ns[0])
        assert (system.log_region.used_slots() == 0) == emptied

    def test_run_is_the_frame_around_the_dispatch_loop(self):
        expected_sys = make_tiny_system()
        expected = expected_sys.run(queue_workload(), 30, n_threads=2)
        system = make_tiny_system()
        workload = queue_workload()
        system.start_run(2, lambda: workload.setup(system, 2))
        for _ in range(30):
            core = min(range(2), key=system.core_time_ns.__getitem__)
            system.dispatch_transaction(core, workload.transaction(core))
        result = system.measured(30)
        system.drain(result.elapsed_ns)
        assert result.transactions == expected.transactions
        assert result.elapsed_ns == expected.elapsed_ns
        assert result.stats == expected.stats
        assert system.stats.as_dict() == expected_sys.stats.as_dict()


class TestCleanShutdownRecovery:
    """After drain, recovery must be a no-op on the data."""

    @pytest.mark.parametrize("design", ["FWB-CRADE", "MorLog-SLDE", "MorLog-DP"])
    def test_recovery_after_clean_run_preserves_values(self, design):
        system = make_tiny_system(design)
        workload = make_workload(
            "hash", WorkloadParams(initial_items=24, key_space=48, seed=2)
        )
        result = system.run(workload, 60, n_threads=2)
        # Snapshot the architectural state of all logged words.
        records = system.recover(verify_decode=False).records
        touched = {
            r.meta.addr for r in records if r.meta.type.name != "COMMIT"
        }
        before = {a: system.persistent_word(a) for a in touched}
        state = system.recover(verify_decode=True)
        for addr, value in before.items():
            assert system.persistent_word(addr) == value
