"""Redo-only hardware logging (the ReDU/DHTM-style ablation baseline).

Figure 1(d) of the paper: redo logging lets a transaction commit without
persisting its updated data, but *in-place data must not be updated in
NVMM until all the transaction's redo data are persisted* — in fact, for
atomicity, not until the transaction commits at all (redo data cannot
undo a partial in-place update).  ReDU solves this by diverting evicted
lines of in-flight transactions into a DRAM cache; this logger models
that mechanism:

- per store: a redo entry coalesces in an eager FIFO buffer;
- a write-back of any line holding in-flight-transaction words is
  *diverted* into a DRAM stage (the hierarchy skips the NVMM write, and
  reads of staged lines are intercepted so the data stay coherent);
- commit: flush the transaction's redo entries, write the commit record,
  then release the transaction's staged lines to NVMM;
- recovery: committed transactions roll forward from the redo log;
  in-flight transactions need nothing — their data never touched NVMM.
"""

from typing import Dict, List, Set, Tuple

from repro.cache.cacheline import CacheLine
from repro.common.bitops import WORD_BYTES, dirty_byte_mask
from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.logging_hw.base import HardwareLogger, TransactionInfo
from repro.logging_hw.buffers import LogBuffer
from repro.logging_hw.entries import CommitRecord, EntryType, LogEntry
from repro.logging_hw.region import LogRegion
from repro.memory.controller import MemoryController


class RedoOnlyLogger(HardwareLogger):
    """Redo logging with a DRAM staging cache for in-flight write-backs."""

    name = "redo-only"

    def __init__(
        self,
        config: SystemConfig,
        controller: MemoryController,
        region: LogRegion,
        stats: StatGroup = None,
    ) -> None:
        super().__init__(config, controller, region, stats)
        self.buffer = LogBuffer(
            "redo_only_buffer",
            config.logging.undo_redo_buffer_entries
            + config.logging.redo_buffer_entries,
            self._evict_age_ns,
            drop_silent=self.use_dirty_flags,
            stats=self.stats,
        )
        # line base -> set of in-flight (tid, txid) with words on it.
        self._inflight_lines: Dict[int, Set[Tuple[int, int]]] = {}
        # (tid, txid) -> line bases it wrote.
        self._tx_lines: Dict[Tuple[int, int], Set[int]] = {}
        # The DRAM stage: line base -> words (diverted write-backs).
        self.stage: Dict[int, List[int]] = {}
        controller.read_interceptor = self._read_staged

    # ------------------------------------------------------------------
    # DRAM stage
    # ------------------------------------------------------------------

    def _read_staged(self, addr: int):
        base = addr - (addr % self.config.caches.line_bytes)
        return self.stage.get(base)

    def divert_write_back(self, line: CacheLine, now_ns: float) -> bool:
        if line.base_addr not in self._inflight_lines:
            return False
        self.stage[line.base_addr] = list(line.words)
        self.stats.add("staged_write_backs")
        return True

    def _release_stage(self, bases, now_ns: float) -> float:
        """Write staged lines whose transactions all finished to NVMM."""
        for base in sorted(bases):
            holders = self._inflight_lines.get(base)
            if holders:
                continue  # another transaction still holds the line back
            words = self.stage.pop(base, None)
            if words is None:
                continue
            if self.crash_plan is not None:
                # The staged line is about to reach NVMM; its transactions
                # have all committed, so redo data must already be durable.
                self.crash_plan.fire("stage-release", addr=base)
            now_ns += self.controller.nvm.write_data_line(base, words, now_ns).stall_ns
            self.stats.add("stage_releases")
        return now_ns

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
            type=EntryType.REDO,
            tid=tx.tid,
            txid=tx.txid,
            addr=line.base_addr + word_index * WORD_BYTES,
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
                entry="redo",
            )
        evicted = self.buffer.insert(entry, now_ns)
        now_ns, _accept = self._persist_many(evicted, now_ns)
        key = (tx.tid, tx.txid)
        self._inflight_lines.setdefault(line.base_addr, set()).add(key)
        self._tx_lines.setdefault(key, set()).add(line.base_addr)
        return now_ns

    def commit_tx(self, tx: TransactionInfo, now_ns: float) -> float:
        entries = self.buffer.pop_tx(tx.tid, tx.txid)
        now_ns, last_accept = self._persist_many(entries, now_ns)
        record = CommitRecord(
            tid=tx.tid, txid=tx.txid, timestamp=self.next_commit_timestamp()
        )
        schedule = self.persist_commit(record, now_ns)
        now_ns = max(now_ns, last_accept, schedule.accept_ns)
        # The transaction no longer blocks its lines; release any staged
        # ones that have no other in-flight holders.
        key = (tx.tid, tx.txid)
        bases = self._tx_lines.pop(key, set())
        for base in bases:
            holders = self._inflight_lines.get(base)
            if holders is not None:
                holders.discard(key)
                if not holders:
                    del self._inflight_lines[base]
        now_ns = self._release_stage(bases, now_ns)
        tx.committed = True
        tx.commit_ns = now_ns + self._commit_overhead_ns
        return tx.commit_ns

    def tick(self, now_ns: float) -> float:
        expired = self.buffer.pop_expired(now_ns)
        now_ns, _accept = self._persist_many(expired, now_ns)
        return now_ns

    def drain(self, now_ns: float) -> float:
        now_ns, _accept = self._persist_many(self.buffer.pop_all(), now_ns)
        # Any leftover staged lines belong to committed transactions by
        # now (the run loop commits everything before draining).
        self._inflight_lines.clear()
        now_ns = self._release_stage(list(self.stage), now_ns)
        return now_ns
