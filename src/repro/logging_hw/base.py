"""Common machinery of the hardware logging designs."""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cache.cacheline import CacheLine
from repro.cache.hierarchy import CacheHierarchy, CacheListener
from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.encoding.slde import LogWriteContext
from repro.logging_hw.entries import CommitRecord, EntryType, LogEntry
from repro.logging_hw.region import LogRegion
from repro.memory.controller import MemoryController
from repro.nvm.module import LogDataWord
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
    """Base class for FWB and MorLog; owns the log region plumbing.

    Subclasses implement the three hooks the system calls on the hot path
    (:meth:`on_store`, :meth:`commit_tx`, :meth:`tick`) plus the
    :class:`CacheListener` callbacks.
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
        # SLDE dirty flags exist only when the log codec is SLDE.
        self.use_dirty_flags = config.encoding.log_codec == "slde"
        self.hierarchy: Optional[CacheHierarchy] = None
        self._next_txid = 1
        self._commit_timestamp = 0
        self._evict_age_ns = (
            config.logging.eager_evict_cycles * config.cores.ns_per_cycle
        )
        self._commit_overhead_ns = COMMIT_OVERHEAD_CYCLES * config.cores.ns_per_cycle
        # Hook the system installs to learn when in-place data persist
        # (drives the transaction-table truncation policy, section III-F).
        self.data_persisted_hook = None
        # Fault-injection plan (see repro.faultinject.plan), installed by
        # System.install_crash_plan on every persistence layer at once.
        self.crash_plan = None
        # Trace bus (see repro.trace), installed by System.install_tracer.
        # Observation-only: emissions never touch simulated state or time.
        self.tracer = None

    def on_data_persisted(self, line_addr: int, now_ns: float) -> None:
        if self.data_persisted_hook is not None:
            self.data_persisted_hook(line_addr)

    # ------------------------------------------------------------------
    # Transaction lifecycle (hot-path hooks, subclass responsibility)
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
        raise NotImplementedError

    def drain(self, now_ns: float) -> float:
        """Flush every buffered log entry (end of run / clean shutdown)."""
        raise NotImplementedError

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
        NVMM state (the volatile machine is gone after a crash), mutate
        home words exclusively through ``array.write_logical`` (so the
        sweep's journaled probes roll back cleanly), and synthesize a
        ScannedRecord for every word they touch so the oracle's
        idempotence set covers it.  The default is a no-op.
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
        schedule = self.persist_entry(entry, now_ns)
        self.stats.add("nt_stores")
        return now_ns + schedule.stall_ns

    # ------------------------------------------------------------------
    # Shared log-write plumbing
    # ------------------------------------------------------------------

    def persist_entry(self, entry: LogEntry, now_ns: float) -> WriteSchedule:
        """Write one buffer entry to the log region."""
        plan = self.crash_plan
        if plan is not None:
            plan.fire("log-append", txid=entry.txid, addr=entry.addr)
        context = None
        if self.use_dirty_flags:
            context = LogWriteContext(old_word=entry.undo, dirty_mask=entry.dirty_mask)
        undo = None
        if entry.type is EntryType.UNDO_REDO:
            undo = LogDataWord(entry.undo, context)
        redo = LogDataWord(entry.redo, context)
        schedule = self.region.append(entry, now_ns, undo=undo, redo=redo)
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
    # Helpers for subclasses
    # ------------------------------------------------------------------

    def _persist_many(self, entries: List[LogEntry], now_ns: float) -> Tuple[float, float]:
        """Persist a batch; returns (producer time, last persist-accept time)."""
        last_accept = now_ns
        for entry in entries:
            schedule = self.persist_entry(entry, now_ns)
            last_accept = max(last_accept, schedule.accept_ns)
            # Queue-full stalls hit the producer.
            now_ns = max(now_ns, now_ns + schedule.stall_ns)
        return now_ns, last_accept

    def _lookup_l1_line(self, tid: int, addr: int) -> Optional[CacheLine]:
        if self.hierarchy is None:
            return None
        if tid >= len(self.hierarchy.l1s):
            return None
        return self.hierarchy.l1s[tid].lookup(addr, touch=False)
