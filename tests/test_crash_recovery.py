"""Crash-injection tests: atomic persistence end to end.

The core guarantee of the paper — *a group of data is persisted to NVMM in
an all-or-nothing manner in the presence of system failures* — is tested
by running real workload transactions, cutting power at an arbitrary store
(volatile state: caches, log buffers, L1 log states all vanish; only the
NVMM array survives), running recovery, and checking:

- **Atomicity**: every transaction's write set is entirely applied or
  entirely absent.
- **Durability** (default protocol): every transaction that committed
  before the crash is applied after recovery.
- **Commit-order persistence** (delay-persistence protocol): the applied
  transactions form a prefix of the commit order.

The oracle replays the recorded per-transaction write sets over the
pre-run NVMM image and compares word by word.
"""

import random

import pytest

from repro.core.designs import DESIGN_NAMES, make_system
from repro.core.system import CrashInjected
from repro.faultinject import CrashAtTxPoint
from repro.workloads.base import WorkloadParams, make_workload
from tests.conftest import tiny_config


class WriteSetTap:
    """Records each transaction's oldest-old and newest-new value per word."""

    def __init__(self):
        self.tx_writes = {}

    def on_tx_store(self, tid, txid, addr, old, new):
        writes = self.tx_writes.setdefault(txid, {})
        if addr not in writes:
            writes[addr] = [old, new]
        else:
            writes[addr][1] = new


def run_until_crash(design, workload_name, seed, crash_at, n_threads=2, max_tx=150):
    """Run transactions, crash at the ``crash_at``-th transactional store."""
    config = tiny_config()
    system = make_system(design, config)
    workload = make_workload(
        workload_name,
        WorkloadParams(initial_items=48, key_space=96, seed=seed),
    )
    workload.setup(system, n_threads)
    system.reset_measurement()

    tap = WriteSetTap()
    system.trace = tap
    system.install_crash_plan(CrashAtTxPoint(crash_at))
    committed = []
    try:
        done = 0
        while done < max_tx:
            core = min(range(n_threads), key=system.core_time_ns.__getitem__)
            body = workload.transaction(core)
            tx = system.begin_tx(core)
            try:
                body(system.contexts[core])
            except CrashInjected:
                system.current_tx[core] = None
                raise
            system.end_tx(core)
            committed.append(tx.txid)
            done += 1
    except CrashInjected:
        pass
    return system, tap, committed


def check_crash_consistency(design, workload_name, seed, crash_at):
    system, tap, committed = run_until_crash(design, workload_name, seed, crash_at)
    state = system.recover(verify_decode=True)
    applied = state.persisted_txids

    # Durability: with the default protocol, commit means persisted.
    if not system.config.logging.delay_persistence:
        missing = set(committed) - applied
        assert not missing, "%s lost committed txs %s" % (design, missing)

    # Commit-order prefix (both protocols; trivial for the default one).
    applied_flags = [txid in applied for txid in committed]
    if False in applied_flags:
        first_missing = applied_flags.index(False)
        assert True not in applied_flags[first_missing:], (
            "%s persisted transactions out of commit order" % design
        )

    # Atomicity + exact values: replay applied transactions in commit
    # order over the write sets and compare every touched word.
    expected = {}
    for txid in sorted(tap.tx_writes):
        writes = tap.tx_writes[txid]
        if txid in applied:
            for addr, (_old, new) in writes.items():
                expected[addr] = new
        else:
            for addr, (old, _new) in writes.items():
                if addr not in expected:
                    expected[addr] = old
    mismatches = {
        hex(addr): (hex(system.persistent_word(addr)), hex(value))
        for addr, value in expected.items()
        if system.persistent_word(addr) != value
    }
    assert not mismatches, "%s: %d corrupted words: %s" % (
        design,
        len(mismatches),
        dict(list(mismatches.items())[:5]),
    )
    return state


CRASH_POINTS = (3, 41, 260, 900)


@pytest.mark.parametrize("design", DESIGN_NAMES)
@pytest.mark.parametrize("crash_at", CRASH_POINTS)
def test_hash_crash_consistency(design, crash_at):
    check_crash_consistency(design, "hash", seed=7, crash_at=crash_at)


@pytest.mark.parametrize("design", ["FWB-CRADE", "MorLog-SLDE", "MorLog-DP"])
@pytest.mark.parametrize("workload", ["btree", "queue", "echo"])
def test_other_workloads_crash_consistency(design, workload):
    check_crash_consistency(design, workload, seed=11, crash_at=333)


@pytest.mark.parametrize("design", ["MorLog-SLDE", "MorLog-DP"])
def test_randomized_crash_points(design):
    rng = random.Random(99)
    for _ in range(4):
        crash_at = rng.randrange(1, 1200)
        check_crash_consistency(design, "hash", seed=rng.randrange(1000), crash_at=crash_at)


def test_crash_during_setup_free_run_recovers_to_noop():
    """Crash before any transaction: recovery finds an empty log."""
    config = tiny_config()
    system = make_system("MorLog-SLDE", config)
    state = system.recover(verify_decode=True)
    assert not state.records
    assert not state.committed_txids


def test_recovery_is_idempotent():
    system, _tap, committed = run_until_crash("MorLog-SLDE", "hash", 5, 200)
    first = system.recover(verify_decode=False)
    snapshot = {
        r.meta.addr: system.persistent_word(r.meta.addr) for r in first.records
        if r.meta.type.name != "COMMIT"
    }
    second = system.recover(verify_decode=False)
    assert second.persisted_txids == first.persisted_txids
    for addr, value in snapshot.items():
        assert system.persistent_word(addr) == value


def test_unsafe_llc_discard_flag_reduces_log_traffic():
    """The paper-literal discard writes fewer redo entries (ablation)."""

    def run(unsafe):
        config = tiny_config(unsafe_llc_redo_discard=unsafe)
        system = make_system("MorLog-SLDE", config)
        workload = make_workload(
            "sps", WorkloadParams(initial_items=128, key_space=256, seed=3)
        )
        result = system.run(workload, 120, n_threads=2)
        return result.stats

    safe = run(False)
    unsafe = run(True)
    assert unsafe.get("redo_llc_discards", 0) >= safe.get("redo_llc_discards", 0)
    assert unsafe.get("log_writes", 0) <= safe.get("log_writes", 0)


@pytest.mark.parametrize("design", ["FWB-CRADE", "MorLog-SLDE", "MorLog-DP"])
def test_crash_consistency_under_log_pressure(design):
    """A log region small enough to wrap and trigger emergency
    truncation mid-run must still recover all-or-nothing."""
    config = tiny_config(log_region_bytes=16 * 1024)
    system = make_system(design, config)
    workload = make_workload(
        "hash", WorkloadParams(initial_items=48, key_space=96, seed=21)
    )
    workload.setup(system, 2)
    system.reset_measurement()
    tap = WriteSetTap()
    system.trace = tap
    system.install_crash_plan(CrashAtTxPoint(2500))
    committed = []
    try:
        while len(committed) < 400:
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
    assert system.stats.get("wraps") + system.stats.get("log_overflow_scans") > 0, (
        "test premise: the log must have wrapped or overflowed"
    )
    state = system.recover(verify_decode=True)
    applied = state.persisted_txids
    # Truncated transactions' entries are gone from the log, but their
    # data persisted before truncation; surviving write sets must be
    # all-or-nothing.  Check every word of every recovered transaction.
    for record in state.records:
        if record.meta.type.name == "COMMIT":
            continue
        txid = record.meta.txid
        if txid not in tap.tx_writes:
            continue
        writes = tap.tx_writes[txid]
        if txid in applied and record.meta.addr in writes:
            # Later persisted txs may have overwritten the word; only
            # check words not touched by any later applied tx.
            later = [
                t for t in applied
                if t > txid and record.meta.addr in tap.tx_writes.get(t, {})
            ]
            if not later:
                assert (
                    system.persistent_word(record.meta.addr)
                    == writes[record.meta.addr][1]
                )
