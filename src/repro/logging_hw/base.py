"""Common machinery of the hardware logging designs.

:class:`HardwareLogger` owns every persist step the designs share: the
log-entry and commit-record writes, the persist loop, the per-transaction
line map, the write-ahead (WAL) flush of one buffer for one line, the
undo-style forced write-back at commit, and the commit tail.
:class:`SingleBufferLogger` is the one-FIFO logger the FWB, undo-only and
redo-only designs specialise through class attributes.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.cache.cacheline import CacheLine
from repro.cache.hierarchy import CacheHierarchy, CacheListener
from repro.common.bitops import WORD_BYTES, dirty_byte_mask
from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.logging_hw.buffers import LogBuffer
from repro.logging_hw.entries import CommitRecord, EntryType, LogEntry
from repro.logging_hw.region import LogRegion
from repro.memory.controller import MemoryController
from repro.nvm.timing import WriteSchedule

# Fixed pipeline cost of executing the commit sequence, in cycles.
COMMIT_OVERHEAD_CYCLES = 10


@dataclass
class TransactionInfo:
    """Book-keeping for one durable transaction."""

    tid: int
    txid: int
    begin_ns: float
    committed: bool = False
    commit_ns: float = 0.0
    n_stores: int = 0


class HardwareLogger(CacheListener):
    """Base class of every hardware logging design.

    Subclasses implement the hot-path hooks the system calls
    (:meth:`on_store`, :meth:`commit_tx`, and where they buffer entries
    :meth:`tick` and :meth:`drain`) plus the :class:`CacheListener`
    callbacks, and build them from the shared persist steps below.
    """

    name = "abstract"

    def __init__(
        self,
        config: SystemConfig,
        controller: MemoryController,
        region: LogRegion,
        stats: Optional[StatGroup] = None,
    ) -> None:
        self.config = config
        self.controller = controller
        self.region = region
        self.stats = stats if stats is not None else StatGroup("logger")
        self.use_dirty_flags = config.encoding.dirty_flags
        self.hierarchy: Optional[CacheHierarchy] = None
        self._next_txid = 1
        self._commit_timestamp = 0
        self._evict_age_ns = (
            config.logging.eager_evict_cycles * config.cores.ns_per_cycle
        )
        self._commit_overhead_ns = COMMIT_OVERHEAD_CYCLES * config.cores.ns_per_cycle
        # (tid, txid) -> line bases the transaction has written.
        self._tx_lines: Dict[Tuple[int, int], Set[int]] = {}
        # Hook the system installs to learn when in-place data persist
        # (drives the transaction-table truncation policy, section III-F).
        self.data_persisted_hook = None
        # Fault-injection plan (see repro.faultinject.plan), installed by
        # System.install_crash_plan on every persistence layer at once.
        self.crash_plan = None
        # Trace bus (see repro.trace), installed by a traced System.
        # Observation-only: emissions never touch simulated state or time.
        self.tracer = None

    def on_data_persisted(self, line_addr: int, now_ns: float) -> None:
        if self.data_persisted_hook is not None:
            self.data_persisted_hook(line_addr)

    # ------------------------------------------------------------------
    # Transaction lifecycle (hot-path hooks)
    # ------------------------------------------------------------------

    def begin_tx(self, tid: int, now_ns: float) -> TransactionInfo:
        txid = self._next_txid
        self._next_txid += 1
        self.stats.add("transactions")
        return TransactionInfo(tid=tid, txid=txid, begin_ns=now_ns)

    def on_store(
        self,
        tx: TransactionInfo,
        line: CacheLine,
        word_index: int,
        old_word: int,
        new_word: int,
        now_ns: float,
    ) -> float:
        """Called with the old L1 value *before* the store lands."""
        raise NotImplementedError

    def commit_tx(self, tx: TransactionInfo, now_ns: float) -> float:
        raise NotImplementedError

    def tick(self, now_ns: float) -> float:
        """Age-based buffer evictions; called once per executed op."""
        return now_ns

    def drain(self, now_ns: float) -> float:
        """Flush every buffered log entry (end of run / clean shutdown)."""
        return now_ns

    def on_fwb_scan(self, now_ns: float) -> float:
        """Called after each force-write-back scan, before truncation.

        No transaction has in-flight persistent state at this boundary
        (the scan wrote every dirty line back), so designs with durable
        side state — the InCLL epoch word, the CoW page-table watermark —
        advance it here.  The default is a no-op.
        """
        return now_ns

    def recover_design_state(self, state) -> None:
        """Design-private recovery pass, run after the central-log pass.

        ``state`` is the :class:`repro.logging_hw.recovery.RecoveredState`
        the log scan produced.  Implementations must read only durable
        NVMM state (the volatile machine is gone after a crash) and roll
        home words back through
        :func:`repro.logging_hw.recovery.restore_undo_word`, which writes
        through ``array.write_logical`` (so the sweep's journaled probes
        roll back cleanly) and synthesizes the ScannedRecord the oracle's
        idempotence set needs.  The default is a no-op.
        """

    def on_nt_store(
        self, tx: TransactionInfo, addr: int, value: int, now_ns: float
    ) -> float:
        """A non-temporal store inside a transaction (section III-F).

        The cache-bypassing store cannot supply undo data without an NVMM
        read, so only redo data are logged; all bytes count as dirty.  The
        base implementation persists the redo entry immediately; MorLog
        overrides this to use the redo buffer (flushed ahead of the commit
        record under both protocols, so recovery sees the entry before the
        commit).
        """
        entry = LogEntry(
            type=EntryType.REDO,
            tid=tx.tid,
            txid=tx.txid,
            addr=addr,
            redo=value,
            dirty_mask=0xFF,
        )
        return self._persist_many([entry], now_ns)[0]

    # ------------------------------------------------------------------
    # Shared log-write plumbing
    # ------------------------------------------------------------------

    def persist_entry(self, entry: LogEntry, now_ns: float) -> WriteSchedule:
        """Write one buffer entry to the log region."""
        plan = self.crash_plan
        if plan is not None:
            plan.fire("log-append", txid=entry.txid, addr=entry.addr)
        schedule = self.region.append(
            entry, now_ns, entry.dirty_mask if self.use_dirty_flags else None
        )
        self.stats.add("entries_persisted")
        if plan is not None:
            point = (
                "redo-persisted"
                if entry.type is EntryType.REDO
                else "undo-persisted"
            )
            plan.fire(point, txid=entry.txid, addr=entry.addr)
        if self.tracer is not None:
            self.tracer.emit(
                "redo-persist" if entry.type is EntryType.REDO else "undo-persist",
                "log",
                now_ns,
                txid=entry.txid,
                addr=entry.addr,
                dur_ns=schedule.stall_ns,
                slots=entry.type.n_slots,
            )
        self._entry_persisted(entry, now_ns)
        return schedule

    def _entry_persisted(self, entry: LogEntry, now_ns: float) -> None:
        """Subclass hook: update L1 word states after a persist."""

    def persist_commit(self, record: CommitRecord, now_ns: float) -> WriteSchedule:
        plan = self.crash_plan
        if plan is not None:
            plan.fire("commit-record", txid=record.txid)
        schedule = self.region.append(record, now_ns)
        self.stats.add("commits_persisted")
        if plan is not None:
            plan.fire("commit-persisted", txid=record.txid)
        if self.tracer is not None:
            self.tracer.emit(
                "commit-persist",
                "log",
                now_ns,
                txid=record.txid,
                dur_ns=schedule.stall_ns,
                timestamp=record.timestamp,
            )
        return schedule

    def next_commit_timestamp(self) -> int:
        self._commit_timestamp += 1
        return self._commit_timestamp

    # ------------------------------------------------------------------
    # Shared persist steps
    # ------------------------------------------------------------------

    def _persist_many(
        self, entries: Iterable[LogEntry], now_ns: float
    ) -> Tuple[float, float]:
        """Persist entries in order; returns (producer time, last accept time)."""
        last_accept = now_ns
        for entry in entries:
            schedule = self.persist_entry(entry, now_ns)
            last_accept = max(last_accept, schedule.accept_ns)
            # Queue-full stalls hit the producer.
            now_ns += schedule.stall_ns
        return now_ns, last_accept

    def _track_line(self, tx: TransactionInfo, base_addr: int) -> None:
        """Record that ``tx`` wrote the line at ``base_addr``."""
        self._tx_lines.setdefault((tx.tid, tx.txid), set()).add(base_addr)

    def _wal_flush(self, buffer: LogBuffer, line_addr: int, now_ns: float) -> float:
        """Write-ahead: persist ``buffer``'s entries for a line before the
        line's in-place write-back."""
        pending = buffer.pop_addr_range(line_addr, self.config.caches.line_bytes)
        if not pending:
            return now_ns
        if self.crash_plan is not None:
            # These entries must reach the log before the in-place line
            # write that triggered the flush.
            self.crash_plan.fire("wal-flush", addr=line_addr)
        self.stats.add("wal_forced_flushes", len(pending))
        if self.tracer is not None:
            self.tracer.emit(
                "wal-flush",
                "log",
                now_ns,
                addr=line_addr,
                entries=len(pending),
            )
        return self._persist_many(pending, now_ns)[0]

    def _force_write_back(self, tx: TransactionInfo, now_ns: float) -> float:
        """Undo-style commit (Figure 1(c)): write back every line ``tx``
        wrote; returns when the last write-back was accepted."""
        done = now_ns
        for base in sorted(self._tx_lines.pop((tx.tid, tx.txid), ())):
            if self.hierarchy is None:
                break
            if self.crash_plan is not None:
                # Crashing between the forced per-line write-backs leaves a
                # partially in-place transaction that only the undo data
                # can roll back — the ordering these designs must get right.
                self.crash_plan.fire("forced-writeback", txid=tx.txid, addr=base)
            done = max(done, self.hierarchy.write_back_line(base, now_ns))
            self.stats.add("forced_data_write_backs")
        return done

    def _commit_record(
        self, tx: TransactionInfo, now_ns: float, last_accept: float
    ) -> float:
        """Persist ``tx``'s commit record, posted at ``now_ns``.

        Returns when the transaction's log data are persistent: the record
        and every write accepted by ``last_accept`` (with ADR that is
        queue acceptance; Figure 1(e)).
        """
        record = CommitRecord(
            tid=tx.tid, txid=tx.txid, timestamp=self.next_commit_timestamp()
        )
        schedule = self.persist_commit(record, now_ns)
        return max(now_ns, last_accept, schedule.accept_ns)

    def _commit_tail(self, tx: TransactionInfo, now_ns: float) -> float:
        """Mark ``tx`` committed once the commit sequence ends at ``now_ns``."""
        tx.committed = True
        tx.commit_ns = now_ns + self._commit_overhead_ns
        return tx.commit_ns

    def _lookup_l1_line(self, tid: int, addr: int) -> Optional[CacheLine]:
        if self.hierarchy is None:
            return None
        if tid >= len(self.hierarchy.l1s):
            return None
        return self.hierarchy.l1s[tid].lookup(addr, touch=False)


class SingleBufferLogger(HardwareLogger):
    """One volatile FIFO of ``entry_type`` entries, one per stored word.

    Entries coalesce per word and transaction, persist when the buffer
    fills or (``eager``) when they age past the eviction bound, and the
    transaction's remaining entries persist ahead of its commit record.
    Entries are flushed ahead of any LLC write-back of their line (the
    write-ahead guarantee).  Subclasses set ``entry_type``.
    """

    entry_type: EntryType
    eager = True  # evict entries that age past the eviction bound
    combined_buffer = False  # size: the undo+redo and redo buffers together

    def __init__(
        self,
        config: SystemConfig,
        controller: MemoryController,
        region: LogRegion,
        stats: Optional[StatGroup] = None,
    ) -> None:
        super().__init__(config, controller, region, stats)
        entries = config.logging.undo_redo_buffer_entries
        if self.combined_buffer:
            entries += config.logging.redo_buffer_entries
        self.buffer = LogBuffer(
            "%s_buffer" % self.name,
            entries,
            self._evict_age_ns if self.eager else None,
            drop_silent=self.use_dirty_flags,
            stats=self.stats,
        )

    def on_store(
        self,
        tx: TransactionInfo,
        line: CacheLine,
        word_index: int,
        old_word: int,
        new_word: int,
        now_ns: float,
    ) -> float:
        entry_type = self.entry_type
        # Positional, in field order: type, tid, txid, addr, redo, undo,
        # dirty_mask.
        entry = LogEntry(
            entry_type,
            tx.tid,
            tx.txid,
            line.base_addr + word_index * WORD_BYTES,
            0 if entry_type is EntryType.UNDO else new_word,
            None if entry_type is EntryType.REDO else old_word,
            dirty_byte_mask(old_word, new_word) if self.use_dirty_flags else 0xFF,
        )
        if self.tracer is not None:
            self.tracer.emit(
                "log-create",
                "log",
                now_ns,
                core=tx.tid,
                txid=tx.txid,
                addr=entry.addr,
                entry=entry_type.name.lower().replace("_", "-"),
            )
        evicted = self.buffer.insert(entry, now_ns)
        return self._persist_many(evicted, now_ns)[0] if evicted else now_ns

    def commit_tx(self, tx: TransactionInfo, now_ns: float) -> float:
        entries = self.buffer.pop_tx(tx.tid, tx.txid)
        now_ns, last_accept = self._persist_many(entries, now_ns)
        return self._commit_tail(tx, self._commit_record(tx, now_ns, last_accept))

    def tick(self, now_ns: float) -> float:
        expired = self.buffer.pop_expired(now_ns)
        return self._persist_many(expired, now_ns)[0] if expired else now_ns

    def drain(self, now_ns: float) -> float:
        return self._persist_many(self.buffer.pop_all(), now_ns)[0]

    def before_llc_write_back(self, line_addr: int, now_ns: float) -> float:
        return self._wal_flush(self.buffer, line_addr, now_ns)
