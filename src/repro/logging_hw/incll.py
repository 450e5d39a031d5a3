"""In-cache-line logging (InCLL-style, after Cohen et al., ASPLOS'19).

*Fine-Grain Checkpointing with In-Cache-Line Logging* embeds undo words
next to the data they protect instead of streaming them to a central log.
This logger models that design on our substrate: every 64-byte data line
owns ``incll_slots_per_line`` embedded undo slots in a dedicated aux
region of NVMM, addressed by line index so an embedded entry costs two
small colocated word writes (undo data, then the validating metadata)
with none of the central log's sequence/control overhead.  When a line's
embedded slots are exhausted within an epoch, the store falls back to a
regular UNDO entry in the central log — the overflow log.

Commit is undo-style (Figure 1(c)): force the transaction's lines back,
then persist a commit record in the central log.  Embedded entries are
never invalidated at commit; instead a durable *epoch* word advances at
every force-write-back scan, and recovery treats an embedded entry as
live only while its epoch is recent (see ``_EPOCH_GRACE``).  Because the
central log frees a commit record only two scans after its transaction
committed, every entry of a truncated transaction is epoch-stale before
its commit record disappears — the invariant the validity rule rests on.

The ``tx-table`` truncation policy frees commit records immediately at
commit, which would break that invariant, so this design rejects it.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.cache.cacheline import CacheLine
from repro.common.bitops import WORD_BYTES
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.common.stats import StatGroup
from repro.logging_hw.base import HardwareLogger, TransactionInfo
from repro.logging_hw.entries import EntryType, LogEntry
from repro.logging_hw.recovery import RecoveredState, restore_undo_word
from repro.logging_hw.region import LogRegion
from repro.memory.controller import MemoryController
from repro.nvm.module import WriteKind

# Bytes of aux region per embedded slot: one undo word + one meta word.
SLOT_BYTES = 2 * WORD_BYTES

# An embedded entry is live while ``epoch >= durable_epoch - _EPOCH_GRACE``.
# Grace 1 covers the crash window between persisting the advanced epoch
# word and re-stamping an open transaction's entries (see on_fwb_scan).
_EPOCH_GRACE = 1

_VALID_BIT = 1
_WORD_SHIFT = 1
_TID_SHIFT = 4
_TXID_SHIFT = 12
_EPOCH_SHIFT = 28


def incll_aux_base(config: SystemConfig) -> int:
    """Base address of the embedded-slot region (above the central log)."""
    return (
        config.nvmm_base
        + config.nvm.size_bytes
        + config.logging.log_region_bytes
    )


def pack_embedded_meta(word_index: int, tid: int, txid: int, epoch: int) -> int:
    """Pack one embedded slot's validating metadata word."""
    return (
        _VALID_BIT
        | ((word_index & 0x7) << _WORD_SHIFT)
        | ((tid & 0xFF) << _TID_SHIFT)
        | ((txid & 0xFFFF) << _TXID_SHIFT)
        | ((epoch & ((1 << 36) - 1)) << _EPOCH_SHIFT)
    )


def unpack_embedded_meta(meta: int) -> Tuple[bool, int, int, int, int]:
    """Inverse of :func:`pack_embedded_meta`: (valid, word, tid, txid, epoch)."""
    return (
        bool(meta & _VALID_BIT),
        (meta >> _WORD_SHIFT) & 0x7,
        (meta >> _TID_SHIFT) & 0xFF,
        (meta >> _TXID_SHIFT) & 0xFFFF,
        (meta >> _EPOCH_SHIFT) & ((1 << 36) - 1),
    )


class _EmbeddedEntry:
    """Volatile record of one live embedded slot."""

    __slots__ = ("slot_addr", "word_index", "tid", "txid", "undo")

    def __init__(self, slot_addr, word_index, tid, txid, undo):
        self.slot_addr = slot_addr
        self.word_index = word_index
        self.tid = tid
        self.txid = txid
        self.undo = undo


class InCllLogger(HardwareLogger):
    """Per-cache-line embedded undo slots with an overflow log fallback."""

    name = "incll"

    def __init__(
        self,
        config: SystemConfig,
        controller: MemoryController,
        region: LogRegion,
        stats: Optional[StatGroup] = None,
    ) -> None:
        super().__init__(config, controller, region, stats)
        if config.logging.truncation == "tx-table":
            raise ConfigError(
                "InCLL epoch validity needs the fwb-scan truncation horizon; "
                "tx-table frees commit records before entries go stale"
            )
        self._slots_per_line = config.logging.incll_slots_per_line
        self._aux_base = incll_aux_base(config)
        self._area_base = self._aux_base + 64
        self._epoch = 0
        # line index -> per-slot holder (None | _EmbeddedEntry).
        self._line_slots: Dict[int, List[Optional[_EmbeddedEntry]]] = {}
        # txid -> its live embedded entries (open transactions only).
        self._tx_embedded: Dict[int, List[_EmbeddedEntry]] = {}
        # txid -> word addresses already undo-logged (first-store filter).
        self._tx_words: Dict[int, Set[int]] = {}
        self._committed: Set[int] = set()

    # ------------------------------------------------------------------
    # Embedded slot plumbing
    # ------------------------------------------------------------------

    def _slot_addr(self, line_index: int, slot: int) -> int:
        return self._area_base + (line_index * self._slots_per_line + slot) * SLOT_BYTES

    def _free_slot(self, line_index: int) -> Optional[int]:
        slots = self._line_slots.setdefault(
            line_index, [None] * self._slots_per_line
        )
        for i, holder in enumerate(slots):
            if holder is None or holder.txid in self._committed:
                return i
        return None

    def _write_embedded(
        self, entry: _EmbeddedEntry, now_ns: float, restamp: bool = False
    ) -> float:
        """Persist one embedded slot: undo word first, then the metadata.

        The metadata word validates the slot, so a crash between the two
        writes leaves a dead slot and the (not-yet-stored) word intact.
        A re-stamp rewrites only the metadata with the current epoch.
        """
        plan = self.crash_plan
        if not restamp:
            if plan is not None:
                plan.fire("embedded-write", txid=entry.txid, addr=entry.slot_addr)
            schedule = self.controller.nvm.write_log_entry(
                entry.slot_addr, [entry.undo], now_ns, kind=WriteKind.LOG
            )
            now_ns += schedule.stall_ns
        meta = pack_embedded_meta(
            entry.word_index, entry.tid, entry.txid, self._epoch
        )
        if plan is not None:
            plan.fire(
                "embedded-write", txid=entry.txid, addr=entry.slot_addr + WORD_BYTES
            )
        schedule = self.controller.nvm.write_log_entry(
            entry.slot_addr + WORD_BYTES, [meta], now_ns, kind=WriteKind.LOG
        )
        return now_ns + schedule.stall_ns

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
        addr = line.base_addr + word_index * WORD_BYTES
        logged = self._tx_words.setdefault(tx.txid, set())
        self._track_line(tx, line.base_addr)
        if addr in logged:
            # The oldest pre-transaction value is already captured.
            return now_ns
        logged.add(addr)
        line_index = (line.base_addr - self.config.nvmm_base) // self.config.caches.line_bytes
        slot = self._free_slot(line_index)
        if slot is not None:
            entry = _EmbeddedEntry(
                self._slot_addr(line_index, slot), word_index,
                tx.tid, tx.txid, old_word,
            )
            self._line_slots[line_index][slot] = entry
            self._tx_embedded.setdefault(tx.txid, []).append(entry)
            now_ns = self._write_embedded(entry, now_ns)
            self.stats.add("embedded_entries")
            if self.tracer is not None:
                self.tracer.emit(
                    "word-state", "word-state", now_ns,
                    core=tx.tid, txid=tx.txid, addr=addr,
                    **{"from": "CLEAN", "to": "EMBEDDED"},
                )
            return now_ns
        # Embedded capacity exhausted: overflow to the central log.
        overflow = LogEntry(
            type=EntryType.UNDO,
            tid=tx.tid,
            txid=tx.txid,
            addr=addr,
            undo=old_word,
            redo=0,
            dirty_mask=0xFF,
        )
        schedule = self.persist_entry(overflow, now_ns)
        self.stats.add("incll_overflows")
        if self.tracer is not None:
            self.tracer.emit(
                "word-state", "word-state", now_ns,
                core=tx.tid, txid=tx.txid, addr=addr,
                **{"from": "CLEAN", "to": "OVERFLOW"},
            )
        return now_ns + schedule.stall_ns

    def commit_tx(self, tx: TransactionInfo, now_ns: float) -> float:
        now_ns = self._force_write_back(tx, now_ns)
        now_ns = self._commit_record(tx, now_ns, now_ns)
        # Commit does not touch the embedded slots: they expire via the
        # epoch and become reusable the moment the holder is committed.
        self._committed.add(tx.txid)
        self._tx_embedded.pop(tx.txid, None)
        self._tx_words.pop(tx.txid, None)
        return self._commit_tail(tx, now_ns)

    def on_fwb_scan(self, now_ns: float) -> float:
        """Advance the durable epoch; re-stamp open transactions' entries.

        The epoch word persists *first*: if the machine dies before the
        re-stamps land, an open transaction's entries sit one epoch
        behind, which the ``_EPOCH_GRACE`` validity rule still accepts.
        """
        self._epoch += 1
        if self.crash_plan is not None:
            self.crash_plan.fire("embedded-write", addr=self._aux_base)
        schedule = self.controller.nvm.write_log_entry(
            self._aux_base, [self._epoch], now_ns, kind=WriteKind.LOG
        )
        now_ns += schedule.stall_ns
        for txid, entries in self._tx_embedded.items():
            if txid in self._committed:
                continue
            for entry in entries:
                now_ns = self._write_embedded(entry, now_ns, restamp=True)
                self.stats.add("embedded_restamps")
        return now_ns

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover_design_state(self, state: RecoveredState) -> None:
        recover_incll(self.controller, self.config, state)


def recover_incll(
    controller: MemoryController, config: SystemConfig, state: RecoveredState
) -> None:
    """Roll back live embedded entries of uncommitted transactions.

    Runs after the central-log pass filled ``state.committed_txids``.
    Reads only durable state: the epoch word and the (sparse) slot area.
    Every rolled-back word is synthesized into ``state.records`` so the
    fault-injection oracle's idempotence probe sees it.
    """
    array = controller.nvm.array
    aux_base = incll_aux_base(config)
    area_base = aux_base + 64
    durable_epoch = array.read_logical(aux_base)
    per_line = config.logging.incll_slots_per_line
    n_lines = config.nvm.size_bytes // config.caches.line_bytes
    area_end = area_base + n_lines * per_line * SLOT_BYTES
    for meta_addr in array.written_addresses(area_base, area_end):
        if (meta_addr - area_base) % SLOT_BYTES != WORD_BYTES:
            continue  # undo data word, not a metadata word
        valid, word_index, tid, txid, epoch = unpack_embedded_meta(
            array.read_logical(meta_addr)
        )
        if not valid or epoch < durable_epoch - _EPOCH_GRACE:
            continue
        if txid in state.committed_txids:
            continue
        undo = array.read_logical(meta_addr - WORD_BYTES)
        slot_index = (meta_addr - WORD_BYTES - area_base) // SLOT_BYTES
        line_index = slot_index // per_line
        home = (
            config.nvmm_base
            + line_index * config.caches.line_bytes
            + word_index * WORD_BYTES
        )
        restore_undo_word(array, state, home, undo, tid, txid, aux_base, slot_index)
