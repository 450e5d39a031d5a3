"""Undo-only hardware logging (the ATOM-style ablation baseline).

Figure 1(c) of the paper: undo logging lets in-place data write back as
soon as the corresponding undo data persist, but *transaction commit must
wait for all the updated data to be persisted* — otherwise a crash after
commit could lose the transaction (there is no redo data to roll it
forward).  That forced write-back at commit is exactly the cost the
undo+redo designs remove, and this logger exists so the ablation bench
can measure it.

Per store: an undo entry (the word's pre-store value, kept oldest-first
under coalescing) goes through an eager FIFO buffer like FWB's.  Commit:
flush the transaction's undo entries, force-write-back every cache line
the transaction touched, wait for those writes to reach the persistence
domain, then write the commit record.  Recovery: committed transactions
need nothing (their data are in place); everything else is rolled back
with the undo data.
"""

from typing import Dict, Set, Tuple

from repro.cache.cacheline import CacheLine
from repro.common.bitops import WORD_BYTES, dirty_byte_mask
from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.logging_hw.base import HardwareLogger, TransactionInfo
from repro.logging_hw.buffers import LogBuffer
from repro.logging_hw.entries import CommitRecord, EntryType, LogEntry
from repro.logging_hw.region import LogRegion
from repro.memory.controller import MemoryController


class UndoOnlyLogger(HardwareLogger):
    """ATOM-style undo logging with forced data write-back at commit."""

    name = "undo-only"

    def __init__(
        self,
        config: SystemConfig,
        controller: MemoryController,
        region: LogRegion,
        stats: StatGroup = None,
    ) -> None:
        super().__init__(config, controller, region, stats)
        self.buffer = LogBuffer(
            "undo_buffer",
            config.logging.undo_redo_buffer_entries,
            self._evict_age_ns,
            drop_silent=self.use_dirty_flags,
            stats=self.stats,
        )
        # (tid, txid) -> line bases the transaction has written.
        self._tx_lines: Dict[Tuple[int, int], Set[int]] = {}

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
            type=EntryType.UNDO,
            tid=tx.tid,
            txid=tx.txid,
            addr=line.base_addr + word_index * WORD_BYTES,
            undo=old_word,
            redo=0,
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
                entry="undo",
            )
        evicted = self.buffer.insert(entry, now_ns)
        now_ns, _accept = self._persist_many(evicted, now_ns)
        self._tx_lines.setdefault((tx.tid, tx.txid), set()).add(line.base_addr)
        return now_ns

    def commit_tx(self, tx: TransactionInfo, now_ns: float) -> float:
        # Undo data first (write-ahead), then the forced data write-back
        # the undo-only scheme cannot avoid (Figure 1(c): commit waits for
        # persist(A), persist(B)).
        entries = self.buffer.pop_tx(tx.tid, tx.txid)
        now_ns, last_accept = self._persist_many(entries, now_ns)
        for base in sorted(self._tx_lines.pop((tx.tid, tx.txid), ())):
            if self.hierarchy is None:
                break
            if self.crash_plan is not None:
                # Crashing between the forced per-line write-backs leaves a
                # partially in-place transaction that only the undo data
                # can roll back — the ordering this design must get right.
                self.crash_plan.fire("forced-writeback", txid=tx.txid, addr=base)
            done = self.hierarchy.write_back_line(base, now_ns)
            last_accept = max(last_accept, done)
            self.stats.add("forced_data_write_backs")
        record = CommitRecord(
            tid=tx.tid, txid=tx.txid, timestamp=self.next_commit_timestamp()
        )
        schedule = self.persist_commit(record, max(now_ns, last_accept))
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
