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

from repro.cache.cacheline import CacheLine
from repro.logging_hw.base import SingleBufferLogger, TransactionInfo
from repro.logging_hw.entries import EntryType


class UndoOnlyLogger(SingleBufferLogger):
    """ATOM-style undo logging with forced data write-back at commit."""

    name = "undo-only"
    entry_type = EntryType.UNDO

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
        self._track_line(tx, line.base_addr)
        return now_ns

    def commit_tx(self, tx: TransactionInfo, now_ns: float) -> float:
        # Undo data first (write-ahead), then the forced data write-back
        # the undo-only scheme cannot avoid (Figure 1(c): commit waits for
        # persist(A), persist(B)), then the commit record.
        entries = self.buffer.pop_tx(tx.tid, tx.txid)
        now_ns, last_accept = self._persist_many(entries, now_ns)
        now_ns = max(self._force_write_back(tx, now_ns), last_accept)
        return self._commit_tail(tx, self._commit_record(tx, now_ns, now_ns))
