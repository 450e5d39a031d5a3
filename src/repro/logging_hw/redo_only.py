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

from typing import Dict, List, Optional, Set, Tuple

from repro.cache.cacheline import CacheLine
from repro.cache.hierarchy import CacheListener
from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.logging_hw.base import SingleBufferLogger, TransactionInfo
from repro.logging_hw.entries import EntryType
from repro.logging_hw.region import LogRegion
from repro.memory.controller import MemoryController


class RedoOnlyLogger(SingleBufferLogger):
    """Redo logging with a DRAM staging cache for in-flight write-backs."""

    name = "redo-only"
    entry_type = EntryType.REDO
    combined_buffer = True
    # Redo data have no write-ahead deadline: in-flight lines are staged.
    before_llc_write_back = CacheListener.before_llc_write_back

    def __init__(
        self,
        config: SystemConfig,
        controller: MemoryController,
        region: LogRegion,
        stats: Optional[StatGroup] = None,
    ) -> None:
        super().__init__(config, controller, region, stats)
        # line base -> set of in-flight (tid, txid) with words on it.
        self._inflight_lines: Dict[int, Set[Tuple[int, int]]] = {}
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

    def on_store(
        self,
        tx: TransactionInfo,
        line: CacheLine,
        word_index: int,
        old_word: int,
        new_word: int,
        now_ns: float,
    ) -> float:
        now_ns = super().on_store(tx, line, word_index, old_word, new_word, now_ns)
        self._inflight_lines.setdefault(line.base_addr, set()).add((tx.tid, tx.txid))
        self._track_line(tx, line.base_addr)
        return now_ns

    def commit_tx(self, tx: TransactionInfo, now_ns: float) -> float:
        entries = self.buffer.pop_tx(tx.tid, tx.txid)
        now_ns, last_accept = self._persist_many(entries, now_ns)
        now_ns = self._commit_record(tx, now_ns, last_accept)
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
        return self._commit_tail(tx, self._release_stage(bases, now_ns))

    def drain(self, now_ns: float) -> float:
        now_ns = super().drain(now_ns)
        # Any leftover staged lines belong to committed transactions by
        # now (the run loop commits everything before draining).
        self._inflight_lines.clear()
        return self._release_stage(list(self.stage), now_ns)
