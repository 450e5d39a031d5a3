"""The FWB undo+redo hardware logging baseline.

FWB ("steal but no force", Ogleari et al. HPCA 2018) is the paper's
state-of-the-art comparison point (section VI-A):

- every transactional store creates an undo+redo log entry (undo read from
  the L1 line, redo from the store itself);
- entries coalesce inside a single volatile FIFO log buffer and are
  written to NVMM when the buffer fills or after N cycles, N below the
  minimum cache-traversal latency (the write-ahead guarantee);
- commit persists the transaction's remaining entries plus a commit
  record and waits for them to reach the persistence domain;
- in-place data steal/no-force: cache lines write back whenever the
  hierarchy pleases, and commit never waits for them.

The evaluated variants map to constructor arguments:

- ``FWB-CRADE``: ``eager=True``, 16-entry buffer, CRADE log codec;
- ``FWB-Unsafe``: ``eager=False``, 48-entry buffer (undo+redo + redo
  sizes) — entries may outlive the N-cycle bound, which is why the paper
  calls it unsafe;
- ``FWB-SLDE``: ``eager=True`` with the SLDE log codec, which adds dirty
  flags to buffer entries and drops completely-clean entries.
"""


from repro.cache.cacheline import CacheLine
from repro.common.bitops import dirty_byte_mask
from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.logging_hw.base import HardwareLogger, TransactionInfo
from repro.logging_hw.buffers import LogBuffer
from repro.logging_hw.entries import CommitRecord, EntryType, LogEntry
from repro.logging_hw.region import LogRegion
from repro.memory.controller import MemoryController


class FwbLogger(HardwareLogger):
    """Single-buffer undo+redo logging per store."""

    name = "fwb"

    def __init__(
        self,
        config: SystemConfig,
        controller: MemoryController,
        region: LogRegion,
        stats: StatGroup = None,
        buffer_entries: int = None,
        eager: bool = True,
    ) -> None:
        super().__init__(config, controller, region, stats)
        if buffer_entries is None:
            buffer_entries = config.logging.undo_redo_buffer_entries
        self.eager = eager
        self.buffer = LogBuffer(
            "fwb_buffer",
            buffer_entries,
            self._evict_age_ns if eager else None,
            drop_silent=self.use_dirty_flags,
            stats=self.stats,
        )

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------

    def on_store(
        self,
        tx: TransactionInfo,
        line: CacheLine,
        word_index: int,
        old_word: int,
        new_word: int,
        now_ns: float,
    ) -> float:
        mask = dirty_byte_mask(old_word, new_word) if self.use_dirty_flags else 0xFF
        entry = LogEntry(
            type=EntryType.UNDO_REDO,
            tid=tx.tid,
            txid=tx.txid,
            addr=line.base_addr + word_index * 8,
            undo=old_word,
            redo=new_word,
            dirty_mask=mask,
        )
        if self.tracer is not None:
            self.tracer.emit(
                "log-create",
                "log",
                now_ns,
                core=tx.tid,
                txid=tx.txid,
                addr=entry.addr,
                entry="undo-redo",
            )
        evicted = self.buffer.insert(entry, now_ns)
        now_ns, _accept = self._persist_many(evicted, now_ns)
        return now_ns

    def commit_tx(self, tx: TransactionInfo, now_ns: float) -> float:
        entries = self.buffer.pop_tx(tx.tid, tx.txid)
        now_ns, last_accept = self._persist_many(entries, now_ns)
        record = CommitRecord(
            tid=tx.tid, txid=tx.txid, timestamp=self.next_commit_timestamp()
        )
        schedule = self.persist_commit(record, now_ns)
        # Undo+redo logging commits once all its log data are persistent
        # (Figure 1(e)); with ADR that is queue acceptance.
        now_ns = max(now_ns, last_accept, schedule.accept_ns)
        tx.committed = True
        tx.commit_ns = now_ns + self._commit_overhead_ns
        return tx.commit_ns

    def tick(self, now_ns: float) -> float:
        expired = self.buffer.pop_expired(now_ns)
        now_ns, _accept = self._persist_many(expired, now_ns)
        return now_ns

    def drain(self, now_ns: float) -> float:
        now_ns, _accept = self._persist_many(self.buffer.pop_all(), now_ns)
        return now_ns

    # ------------------------------------------------------------------
    # Cache callbacks (write-ahead ordering)
    # ------------------------------------------------------------------

    def before_llc_write_back(self, line_addr: int, now_ns: float) -> float:
        pending = self.buffer.pop_addr_range(line_addr, self.config.caches.line_bytes)
        if pending:
            if self.crash_plan is not None:
                # Write-ahead boundary: these entries must reach the log
                # before the in-place line write that triggered the flush.
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
            now_ns, _accept = self._persist_many(pending, now_ns)
        return now_ns
