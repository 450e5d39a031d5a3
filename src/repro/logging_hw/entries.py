"""Log entry formats (paper Figure 7) and their log-region packing.

Every buffer entry carries a 2-bit type, an 8-bit thread ID, a 16-bit
transaction ID, a 48-bit word address and one or two words of log data.  In
the log region an entry occupies two metadata words plus its data words:

- metadata word 0: type | tid | txid | torn bit | ulog counter | sequence
  number (the sequence number is our addition — it disambiguates the wrap
  point of the circular region, see DESIGN.md substitutions);
- metadata word 1: home word address | per-byte dirty flag | timestamp
  low bits (distributed-log commit records, section III-F).

Log data words are stored at word granularity, exactly the paper's logging
granularity (section III-A).
"""

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.bitops import WORD_BYTES
from repro.common.frozen import slot_init


# Data words and log-region slots (two metadata words plus the data
# words) per entry type, indexed by the type's value.
_N_DATA_WORDS = (2, 1, 0, 1)
ENTRY_SLOTS = tuple(2 + n for n in _N_DATA_WORDS)


class EntryType(enum.Enum):
    UNDO_REDO = 0
    REDO = 1
    COMMIT = 2
    UNDO = 3    # undo-only designs (the ATOM-style ablation baseline)

    @property
    def n_data_words(self) -> int:
        return _N_DATA_WORDS[self._value_]

    @property
    def n_slots(self) -> int:
        """Total 64-bit log-region slots the entry occupies."""
        return ENTRY_SLOTS[self._value_]


_TYPE_BITS = 2
_TID_BITS = 8
_TXID_BITS = 16
_TORN_BITS = 1
_ULOG_BITS = 16
_SEQ_BITS = 20
_ADDR_BITS = 48
_MASK_BITS = 8

# Metadata word 0's field shifts, lowest field first, and the field masks.
_TID_SHIFT = _TYPE_BITS
_TXID_SHIFT = _TID_SHIFT + _TID_BITS
_TORN_SHIFT = _TXID_SHIFT + _TXID_BITS
_ULOG_SHIFT = _TORN_SHIFT + _TORN_BITS
_SEQ_SHIFT = _ULOG_SHIFT + _ULOG_BITS
_TYPE_MASK = (1 << _TYPE_BITS) - 1
_TID_MASK = (1 << _TID_BITS) - 1
_TXID_MASK = (1 << _TXID_BITS) - 1
_ULOG_MASK = (1 << _ULOG_BITS) - 1
_SEQ_MASK = (1 << _SEQ_BITS) - 1
_ADDR_MASK = (1 << _ADDR_BITS) - 1
_DIRTY_MASK = (1 << _MASK_BITS) - 1
_TIMESTAMP_MASK = (1 << 63) - 1
_COMMIT = EntryType.COMMIT._value_

# LogEntry's check of its undo data, by type value: the error for an
# entry without undo data and for one with (None where it is valid).
_NEED_UNDO = ("undo-carrying entries need undo data", None)
_UNDO_ERRORS = (
    _NEED_UNDO,                                      # UNDO_REDO
    (None, "redo entries carry no undo data"),       # REDO
    ("commit records use CommitRecord",) * 2,        # COMMIT
    _NEED_UNDO,                                      # UNDO
)


def _check_entry(type: EntryType, addr: int, undo: Optional[int]) -> None:
    if addr % WORD_BYTES:
        raise ValueError("log entries are word aligned")
    error = _UNDO_ERRORS[type._value_][undo is not None]
    if error is not None:
        raise ValueError(error)


@slot_init(_check_entry)
@dataclass(frozen=True, slots=True)
class LogEntry:
    """One undo+redo or redo log entry."""

    type: EntryType
    tid: int
    txid: int
    addr: int                       # 64-bit-aligned home address
    redo: int                       # newest value of the word
    undo: Optional[int] = None      # oldest value (UNDO_REDO only)
    dirty_mask: int = 0xFF          # per-byte dirty flag (section IV-A)

    @property
    def key(self) -> Tuple[int, int, int]:
        """Coalescing key: the same word written by the same transaction."""
        return (self.tid, self.txid, self.addr)


@slot_init()
@dataclass(frozen=True, slots=True)
class CommitRecord:
    """Transaction commit record.

    ``ulog_counter`` backs the delay-persistence protocol (section III-C):
    the number of L1 words still holding unlogged redo data at commit.
    ``timestamp`` orders commits across distributed per-thread logs
    (section III-F).
    """

    tid: int
    txid: int
    ulog_counter: int = 0
    timestamp: int = 0

    @property
    def type(self) -> EntryType:
        return EntryType.COMMIT


def pack_meta_words(record, torn: int, seq: int) -> List[int]:
    """Pack an entry or commit record into its two metadata words.

    Every field is masked to its width, so both words fit in 63 bits.
    """
    type_value = record.type._value_
    meta0 = (
        type_value
        | (record.tid & _TID_MASK) << _TID_SHIFT
        | (record.txid & _TXID_MASK) << _TXID_SHIFT
        | (torn & 1) << _TORN_SHIFT
        | (seq & _SEQ_MASK) << _SEQ_SHIFT
    )
    if type_value == _COMMIT:
        meta0 |= (record.ulog_counter & _ULOG_MASK) << _ULOG_SHIFT
        return [meta0, record.timestamp & _TIMESTAMP_MASK]
    meta1 = record.addr & _ADDR_MASK | (record.dirty_mask & _DIRTY_MASK) << _ADDR_BITS
    return [meta0, meta1]


@dataclass(frozen=True)
class ParsedMeta:
    """Decoded metadata words, as the recovery routine sees them."""

    type: EntryType
    tid: int
    txid: int
    torn: int
    ulog_counter: int
    seq: int
    addr: int
    dirty_mask: int
    timestamp: int


def unpack_meta_words(meta0: int, meta1: int) -> ParsedMeta:
    """Inverse of :func:`pack_meta_words`."""
    type_value = meta0 & _TYPE_MASK
    try:
        entry_type = EntryType(type_value)
    except ValueError:
        raise ValueError("invalid entry type %d" % type_value)
    tid = (meta0 >> _TID_SHIFT) & _TID_MASK
    txid = (meta0 >> _TXID_SHIFT) & _TXID_MASK
    torn = (meta0 >> _TORN_SHIFT) & 1
    ulog = (meta0 >> _ULOG_SHIFT) & _ULOG_MASK
    seq = (meta0 >> _SEQ_SHIFT) & _SEQ_MASK
    if entry_type is EntryType.COMMIT:
        return ParsedMeta(entry_type, tid, txid, torn, ulog, seq, 0, 0, meta1)
    addr = meta1 & _ADDR_MASK
    mask = (meta1 >> _ADDR_BITS) & _DIRTY_MASK
    return ParsedMeta(entry_type, tid, txid, torn, ulog, seq, addr, mask, 0)


SEQ_MODULUS = 1 << _SEQ_BITS


def seq_follows(prev: int, current: int) -> bool:
    """True when ``current`` is the successor of ``prev`` mod 2^20."""
    return current == (prev + 1) % SEQ_MODULUS
