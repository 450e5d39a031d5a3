"""MorLog: morphable hardware logging (paper section III and Figure 11).

The eager-undo / lazy-redo write-back policy over two buffers plus the L1
word-state machine of Figure 8:

- first update to a word in a transaction → undo+redo entry into the
  undo+redo buffer (eagerly evicted within N cycles), word ``DIRTY``;
- further updates while the entry is still buffered coalesce in place
  (``DIRTY`` → ``DIRTY``);
- once the entry persists the word turns ``URLOG``; the next same-
  transaction update buffers the redo *in the L1 line itself*
  (``URLOG`` → ``ULOG``), accumulating a per-byte dirty flag;
- the buffered redo becomes a redo entry when the line leaves the L1 or a
  new transaction touches it; the redo buffer writes it lazily;
- a redo entry superseded by a *newer undo+redo entry of the same
  transaction and word* is discarded (necessary for recovery-order
  correctness, see DESIGN.md); at LLC write-back the matching redo entry
  is persisted (default) or discarded (``unsafe_llc_redo_discard``, the
  paper's literal behaviour);
- commit either persists everything (default protocol) or commits
  instantly and leaves persistence to the ulog-counter machinery
  (delay-persistence protocol, section III-C).

With SLDE enabled, stores that do not change the word's value leave the
state machine untouched entirely (Figure 11, "Write C1").
"""

from typing import Dict, Set, Tuple

from repro.cache.cacheline import CacheLine, LogState
from repro.common.bitops import WORD_BYTES, dirty_byte_mask
from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.logging_hw.base import HardwareLogger, TransactionInfo
from repro.logging_hw.buffers import LogBuffer
from repro.logging_hw.entries import CommitRecord, EntryType, LogEntry
from repro.logging_hw.region import LogRegion
from repro.memory.controller import MemoryController


class MorLogLogger(HardwareLogger):
    """Morphable logging with optional delay-persistence commit."""

    name = "morlog"

    def __init__(
        self,
        config: SystemConfig,
        controller: MemoryController,
        region: LogRegion,
        stats: StatGroup = None,
    ) -> None:
        super().__init__(config, controller, region, stats)
        log_cfg = config.logging
        self.delay_persistence = log_cfg.delay_persistence
        self.unsafe_llc_redo_discard = log_cfg.unsafe_llc_redo_discard
        self.ur_buffer = LogBuffer(
            "undo_redo_buffer",
            log_cfg.undo_redo_buffer_entries,
            self._evict_age_ns,
            drop_silent=False,
            stats=self.stats,
        )
        self.redo_buffer = LogBuffer(
            "redo_buffer",
            max(log_cfg.redo_buffer_entries, 1),
            None,  # redo data have no ordering deadline (section III-B)
            drop_silent=self.use_dirty_flags,
            stats=self.stats,
        )
        self._redo_enabled = log_cfg.redo_buffer_entries > 0
        # (tid, txid) -> redo-buffer keys of non-temporal stores, which
        # must be persisted ahead of the commit record (section III-F).
        self._nt_keys: Dict[Tuple[int, int], Set[Tuple[int, int, int]]] = {}

    # ------------------------------------------------------------------
    # Store path: the Figure 8 state machine
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
        if line.txid is not None and (line.txid, line.tid) != (tx.txid, tx.tid):
            # The line still carries another transaction's state: close it
            # out first (one TID/TxID per line, Figure 7).
            now_ns = self._close_out_line(line, now_ns)

        mask_delta = dirty_byte_mask(old_word, new_word)
        state = line.state(word_index)

        if state is LogState.CLEAN:
            if self.use_dirty_flags and mask_delta == 0:
                # Silent store: value unchanged, nothing to log (Figure 11).
                self.stats.add("silent_stores")
                return now_ns
            return self._first_update(tx, line, word_index, old_word, new_word, mask_delta, now_ns)

        if state is LogState.DIRTY:
            entry = LogEntry(
                type=EntryType.UNDO_REDO,
                tid=tx.tid,
                txid=tx.txid,
                addr=line.base_addr + word_index * WORD_BYTES,
                undo=old_word,
                redo=new_word,
                dirty_mask=mask_delta if self.use_dirty_flags else 0xFF,
            )
            if entry.key in self.ur_buffer:
                self.ur_buffer.insert(entry, now_ns)  # coalesces in place
                line.word_dirty_flags[word_index] |= mask_delta
                return now_ns
            # The entry persisted between state update and now (defensive;
            # eviction updates states synchronously, so treat as URLOG).
            line.set_state(word_index, LogState.URLOG)
            state = LogState.URLOG

        if state is LogState.URLOG:
            if self.use_dirty_flags and mask_delta == 0:
                self.stats.add("silent_stores")
                return now_ns
            # Buffer the redo in place in the L1 line (the store itself
            # writes the new value); the flag restarts relative to the
            # last logged redo (Figure 11(c)).
            line.set_state(word_index, LogState.ULOG)
            line.word_dirty_flags[word_index] = mask_delta if self.use_dirty_flags else 0xFF
            if self.tracer is not None:
                self.tracer.emit(
                    "word-state",
                    "word-state",
                    now_ns,
                    core=tx.tid,
                    txid=tx.txid,
                    addr=line.base_addr + word_index * WORD_BYTES,
                    **{"from": "URLOG", "to": "ULOG"}
                )
            return now_ns

        # ULOG: keep accumulating in place.
        line.word_dirty_flags[word_index] |= mask_delta if self.use_dirty_flags else 0xFF
        return now_ns

    def _first_update(
        self,
        tx: TransactionInfo,
        line: CacheLine,
        word_index: int,
        old_word: int,
        new_word: int,
        mask_delta: int,
        now_ns: float,
    ) -> float:
        addr = line.base_addr + word_index * WORD_BYTES
        # Positional, in field order: type, tid, txid, addr, redo, undo,
        # dirty_mask.
        entry = LogEntry(
            EntryType.UNDO_REDO,
            tx.tid,
            tx.txid,
            addr,
            new_word,
            old_word,
            mask_delta if self.use_dirty_flags else 0xFF,
        )
        # A newer undo+redo entry supersedes any buffered redo entry for
        # the same word and transaction; dropping it keeps per-word log
        # order monotone (recovery replays in log order).
        if self._redo_enabled and self.redo_buffer.pop_key(entry.key) is not None:
            self.stats.add("redo_superseded_discards")
        evicted = self.ur_buffer.insert(entry, now_ns)
        if evicted:
            now_ns = self._persist_many(evicted, now_ns)[0]
        line.tid = tx.tid
        line.txid = tx.txid
        line.set_state(word_index, LogState.DIRTY)
        line.word_dirty_flags[word_index] = mask_delta
        self._track_line(tx, line.base_addr)
        if self.tracer is not None:
            self.tracer.emit(
                "log-create",
                "log",
                now_ns,
                core=tx.tid,
                txid=tx.txid,
                addr=addr,
                entry="undo-redo",
            )
            self.tracer.emit(
                "word-state",
                "word-state",
                now_ns,
                core=tx.tid,
                txid=tx.txid,
                addr=addr,
                **{"from": "CLEAN", "to": "DIRTY"}
            )
        return now_ns

    # ------------------------------------------------------------------
    # Buffer eviction plumbing
    # ------------------------------------------------------------------

    def _entry_persisted(self, entry: LogEntry, now_ns: float) -> None:
        if entry.type is not EntryType.UNDO_REDO:
            return
        line = self._lookup_l1_line(entry.tid, entry.addr)
        if line is None or line.txid != entry.txid:
            return
        index = (entry.addr - line.base_addr) // WORD_BYTES
        if line.state(index) is LogState.DIRTY:
            line.set_state(index, LogState.URLOG)
            line.word_dirty_flags[index] = 0
            if self.tracer is not None:
                self.tracer.emit(
                    "word-state",
                    "word-state",
                    now_ns,
                    core=entry.tid,
                    txid=entry.txid,
                    addr=entry.addr,
                    **{"from": "DIRTY", "to": "URLOG"}
                )

    def _emit_redo(self, line: CacheLine, index: int, now_ns: float) -> float:
        """Turn a ULOG word's in-line redo data into a redo entry."""
        tid, txid = line.tid, line.txid
        addr = line.base_addr + index * WORD_BYTES
        if self.crash_plan is not None:
            # A ULOG word's in-line redo data leave the L1 and become a
            # log entry here — the boundary the delay-persistence ulog
            # accounting depends on.
            self.crash_plan.fire("redo-drain", txid=txid, addr=addr)
        if self.tracer is not None:
            self.tracer.emit(
                "log-create",
                "log",
                now_ns,
                core=tid,
                txid=txid,
                addr=addr,
                entry="redo",
            )
        entry = LogEntry(
            type=EntryType.REDO,
            tid=tid,
            txid=txid,
            addr=addr,
            redo=line.word(index),
            dirty_mask=line.word_dirty_flags[index] if self.use_dirty_flags else 0xFF,
        )
        return self._log_redo(entry, now_ns)

    def _log_redo(self, entry: LogEntry, now_ns: float) -> float:
        """Buffer a redo entry, or persist it at once without a redo buffer."""
        if self._redo_enabled:
            evicted = self.redo_buffer.insert(entry, now_ns)
        else:
            evicted = [entry]
        return self._persist_many(evicted, now_ns)[0]

    def _close_out_line(self, line: CacheLine, now_ns: float) -> float:
        """Retire all log state another transaction left on this line."""
        tid, txid = line.tid, line.txid
        for index in range(len(line.words)):
            state = line.state(index)
            if state is LogState.DIRTY:
                key = (tid, txid, line.base_addr + index * WORD_BYTES)
                pending = self.ur_buffer.pop_key(key)
                if pending is not None:
                    now_ns = self._persist_many([pending], now_ns)[0]
            elif state is LogState.ULOG:
                now_ns = self._emit_redo(line, index, now_ns)
        line.clear_log_state()
        lines = self._tx_lines.get((tid, txid))
        if lines is not None:
            lines.discard(line.base_addr)
        return now_ns

    # ------------------------------------------------------------------
    # Cache callbacks
    # ------------------------------------------------------------------

    def on_l1_evict(self, core: int, line: CacheLine, now_ns: float) -> float:
        if line.txid is None:
            return now_ns
        return self._close_out_line(line, now_ns)

    def before_llc_write_back(self, line_addr: int, now_ns: float) -> float:
        # Write-ahead ordering: undo data for this line must be in NVMM
        # before the in-place write (only FWB-scan write-backs of live L1
        # lines can still have buffered entries here).
        now_ns = self._wal_flush(self.ur_buffer, line_addr, now_ns)
        if not self._redo_enabled:
            return now_ns
        # The in-place data are about to persist; the buffered redo data
        # for this line are now redundant.
        stale = self.redo_buffer.pop_addr_range(line_addr, self.config.caches.line_bytes)
        if stale:
            if self.unsafe_llc_redo_discard:
                self.stats.add("redo_llc_discards", len(stale))
            else:
                self.stats.add("redo_llc_flushes", len(stale))
                now_ns = self._persist_many(stale, now_ns)[0]
        return now_ns

    # ------------------------------------------------------------------
    # Non-temporal stores (section III-F)
    # ------------------------------------------------------------------

    def on_nt_store(self, tx, addr: int, value: int, now_ns: float) -> float:
        entry = LogEntry(
            type=EntryType.REDO,
            tid=tx.tid,
            txid=tx.txid,
            addr=addr,
            redo=value,
            dirty_mask=0xFF,
        )
        if self._redo_enabled:
            self._nt_keys.setdefault((tx.tid, tx.txid), set()).add(entry.key)
        return self._log_redo(entry, now_ns)

    def _flush_nt_entries(self, tx: TransactionInfo, now_ns: float) -> float:
        """Persist buffered non-temporal redo entries before the commit
        record, so recovery never misses a committed NT store."""
        keys = self._nt_keys.pop((tx.tid, tx.txid), ())
        if keys and self.crash_plan is not None:
            self.crash_plan.fire("nt-flush", txid=tx.txid)
        if keys and self.tracer is not None:
            self.tracer.emit(
                "nt-flush",
                "log",
                now_ns,
                core=tx.tid,
                txid=tx.txid,
                entries=len(keys),
            )
        # Lazily, so each entry leaves the buffer only when its turn to
        # persist comes: an LLC write-back an earlier persist causes may
        # flush or discard it first.
        entries = filter(None, map(self.redo_buffer.pop_key, keys))
        return self._persist_many(entries, now_ns)[0]

    # ------------------------------------------------------------------
    # Commit protocols
    # ------------------------------------------------------------------

    def commit_tx(self, tx: TransactionInfo, now_ns: float) -> float:
        now_ns = self._flush_nt_entries(tx, now_ns)
        if self.delay_persistence:
            return self._commit_delay_persistence(tx, now_ns)
        return self._commit_persistent(tx, now_ns)

    def _commit_persistent(self, tx: TransactionInfo, now_ns: float) -> float:
        """Default protocol: commit implies both atomicity and persistence."""
        entries = self.ur_buffer.pop_tx(tx.tid, tx.txid)
        now_ns, last_accept = self._persist_many(entries, now_ns)
        for base in sorted(self._tx_lines.pop((tx.tid, tx.txid), ())):
            line = self._lookup_l1_line(tx.tid, base)
            if line is None or line.txid != tx.txid:
                continue
            for index in line.words_in_state(LogState.ULOG):
                now_ns = self._emit_redo(line, index, now_ns)
            line.clear_log_state()
        entries = self.redo_buffer.pop_tx(tx.tid, tx.txid)
        now_ns, redo_accept = self._persist_many(entries, now_ns)
        now_ns = self._commit_record(tx, now_ns, max(last_accept, redo_accept))
        return self._commit_tail(tx, now_ns)

    def _commit_delay_persistence(self, tx: TransactionInfo, now_ns: float) -> float:
        """Delay-persistence protocol (section III-C): instant commit.

        Undo data already persist in issue order (FIFO undo+redo buffer),
        so atomicity holds at any crash point; the commit record carries
        the ulog counter so recovery can tell whether the transaction's
        redo data all reached the log.
        """
        now_ns = self._persist_many(self.ur_buffer.pop_tx(tx.tid, tx.txid), now_ns)[0]
        ulog = 0
        for base in self._tx_lines.pop((tx.tid, tx.txid), ()):
            line = self._lookup_l1_line(tx.tid, base)
            if line is None or line.txid != tx.txid:
                continue
            ulog += len(line.words_in_state(LogState.ULOG))
            # The line keeps its state; redo entries are created when a
            # new transaction touches it or it leaves the L1.
        record = CommitRecord(
            tid=tx.tid,
            txid=tx.txid,
            ulog_counter=ulog,
            timestamp=self.next_commit_timestamp(),
        )
        schedule = self.persist_commit(record, now_ns)
        self.stats.add("dp_ulog_total", ulog)
        return self._commit_tail(tx, now_ns + schedule.stall_ns)

    # ------------------------------------------------------------------
    # Background work
    # ------------------------------------------------------------------

    def tick(self, now_ns: float) -> float:
        expired = self.ur_buffer.pop_expired(now_ns)
        return self._persist_many(expired, now_ns)[0] if expired else now_ns

    def drain(self, now_ns: float) -> float:
        now_ns = self._persist_many(self.ur_buffer.pop_all(), now_ns)[0]
        if self.hierarchy is not None:
            for core, l1 in enumerate(self.hierarchy.l1s):
                for line in list(l1.iter_lines()):
                    if line.txid is not None:
                        now_ns = self._close_out_line(line, now_ns)
        return self._persist_many(self.redo_buffer.pop_all(), now_ns)[0]
