"""Crash recovery (paper section III-E).

The recovery routine reads only what survived in NVMM: the log region's
control block (durable head pointer) and the raw log slots.  It walks the
log from the head, validating each entry's torn bit and sequence number,
until the chain breaks — that is the crash-time tail.

Then, per the paper:

- default protocol: transactions with a commit record are *redone* (their
  redo data copied to the home locations, in commit order, each
  transaction's entries in log order); transactions without one are
  *undone* in reverse log order.
- delay-persistence protocol: a committed transaction is *persisted* only
  if its commit record's ulog counter matches the number of its redo
  entries appearing after the record; the first non-persisted commit makes
  every later commit non-persisted too (transactions must persist in
  commit order).  Persisted transactions are redone, everything else is
  undone.

With ``verify_decode=True`` every applied log word is additionally pushed
through the SLDE/CRADE decode path (DLDC words decode against their base
word) and checked against the stored logical value — exercising the read
path of Figure 10.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.bitops import WORD_BYTES
from repro.common.errors import RecoveryError
from repro.logging_hw.entries import EntryType, ParsedMeta, unpack_meta_words
from repro.logging_hw.region import CONTROL_SLOTS, MAX_ENTRY_SLOTS, LogRegion
from repro.memory.controller import MemoryController


@dataclass(frozen=True)
class ScannedRecord:
    """One log entry as found in NVMM during the recovery scan."""

    position: int          # scan order within its region
    offset: int            # slot offset in the region
    meta: ParsedMeta
    data_words: Tuple[int, ...]   # (undo, redo) / (redo,) / ()
    region_base: int = 0   # base address of the region it came from

    @property
    def undo(self) -> Optional[int]:
        if self.meta.type in (EntryType.UNDO_REDO, EntryType.UNDO):
            return self.data_words[0]
        return None

    @property
    def redo(self) -> Optional[int]:
        if self.meta.type is EntryType.UNDO_REDO:
            return self.data_words[1]
        if self.meta.type is EntryType.REDO:
            return self.data_words[0]
        return None


@dataclass
class RecoveredState:
    """Summary of one recovery run."""

    records: List[ScannedRecord] = field(default_factory=list)
    committed_txids: Set[int] = field(default_factory=set)
    persisted_txids: Set[int] = field(default_factory=set)
    redone_words: int = 0
    undone_words: int = 0
    decode_verified_words: int = 0


def restore_undo_word(
    array, state: RecoveredState, home: int, undo: int,
    tid: int, txid: int, region_base: int, offset: int,
) -> None:
    """Roll a home word back to design-private undo data.

    For the design-private passes (InCLL slots, CoW shadow pages): the
    write goes through ``array.write_logical``, so the sweep's journaled
    probes roll it back, and the word's synthetic ``UNDO`` record (at
    ``offset`` of ``region_base``) joins ``state.records`` for the
    oracle's idempotence probe.
    """
    array.write_logical(home, undo)
    state.undone_words += 1
    meta = ParsedMeta(type=EntryType.UNDO, tid=tid, txid=txid, torn=0,
                      ulog_counter=0, seq=0, addr=home, dirty_mask=0xFF,
                      timestamp=0)
    state.records.append(
        ScannedRecord(len(state.records), offset, meta, (undo,), region_base)
    )


def scan_log(
    controller: MemoryController, region_base: int, region_size: int
) -> List[ScannedRecord]:
    """Walk the log region in NVMM from the durable head to the tail."""
    array = controller.nvm.array
    n_slots = region_size // WORD_BYTES
    head, head_seq, head_parity = LogRegion.read_control(controller, region_base)
    if not CONTROL_SLOTS <= head <= n_slots:
        raise RecoveryError("corrupt control block: head=%d" % head)

    def slot_addr(offset: int) -> int:
        return region_base + offset * WORD_BYTES

    records: List[ScannedRecord] = []
    offset, parity, expected_seq = head, head_parity, head_seq
    wrapped = False
    while True:
        if n_slots - offset < 2:
            if wrapped:
                break
            offset, parity, wrapped = CONTROL_SLOTS, parity ^ 1, True
        meta0 = array.read_logical(slot_addr(offset))
        meta1 = array.read_logical(slot_addr(offset + 1))
        try:
            meta = unpack_meta_words(meta0, meta1)
        except ValueError:
            meta = None
        valid = (
            meta is not None
            and meta.torn == parity
            and meta.seq == expected_seq % (1 << 20)
            and offset + meta.type.n_slots <= n_slots
        )
        if not valid:
            # Either the tail, or the producer wrapped early because the
            # next entry did not fit before the end of the region.
            if not wrapped and n_slots - offset < MAX_ENTRY_SLOTS:
                offset, parity, wrapped = CONTROL_SLOTS, parity ^ 1, True
                continue
            break
        data = tuple(
            array.read_logical(slot_addr(offset + 2 + i))
            for i in range(meta.type.n_data_words)
        )
        records.append(
            ScannedRecord(len(records), offset, meta, data, region_base)
        )
        offset += meta.type.n_slots
        expected_seq += 1
        if len(records) > n_slots:
            raise RecoveryError("log scan did not terminate")
    return records


def _persisted_prefix(records: List[ScannedRecord], commits: List[ScannedRecord]) -> Set[int]:
    """Delay-persistence: committed txids whose redo data all made it.

    ``commits`` arrive in commit (timestamp) order; a transaction's redo
    entries always live in its own thread's region, so the post-commit
    check compares positions within that region.
    """
    redo_records: Dict[int, List[ScannedRecord]] = {}
    for r in records:
        if r.meta.type is EntryType.REDO:
            redo_records.setdefault(r.meta.txid, []).append(r)
    persisted: Set[int] = set()
    for commit in commits:
        txid = commit.meta.txid
        after = sum(
            1
            for r in redo_records.get(txid, ())
            if r.region_base == commit.region_base and r.position > commit.position
        )
        if after != commit.meta.ulog_counter:
            break  # this and every later commit are non-persisted
        persisted.add(txid)
    return persisted


def _verify_decode(controller: MemoryController, record: ScannedRecord) -> int:
    """Run the stored slots through the codec read path; returns words checked."""
    module = controller.nvm
    checked = 0
    region_base = record.region_base
    base_offset = record.offset
    if record.meta.type is EntryType.UNDO_REDO:
        undo_addr = region_base + (base_offset + 2) * WORD_BYTES
        redo_addr = region_base + (base_offset + 3) * WORD_BYTES
        # Each side's base word for DLDC is the other side (the
        # never-both-DLDC rule guarantees one side is self-contained).
        module.decode_word(undo_addr, base_word=record.redo)
        module.decode_word(redo_addr, base_word=record.undo)
        checked += 2
    elif record.meta.type in (EntryType.REDO, EntryType.UNDO):
        data_addr = region_base + (base_offset + 2) * WORD_BYTES
        # DLDC-encoded log data reconstruct their clean bytes from the
        # in-place word (identical on clean bytes by definition).
        in_place = controller.nvm.array.read_logical(record.meta.addr)
        module.decode_word(data_addr, base_word=in_place)
        checked += 1
    return checked


def recover(
    controller: MemoryController,
    region_base,
    region_size: int,
    delay_persistence: bool = False,
    verify_decode: bool = False,
) -> RecoveredState:
    """Recover the in-place data in NVMM after a crash.

    ``region_base`` is either a single region base address (centralized
    log) or a sequence of bases (distributed per-thread logs, section
    III-F); ``region_size`` is the per-region size.  With distributed
    logs, the commit-record timestamps order transactions globally.
    """
    if isinstance(region_base, int):
        region_bases = [region_base]
    else:
        region_bases = list(region_base)

    state = RecoveredState()
    for base in region_bases:
        state.records.extend(scan_log(controller, base, region_size))
    records = state.records

    # Global commit order: by timestamp (monotone across threads); within
    # one region this matches scan order.
    commits = sorted(
        (r for r in records if r.meta.type is EntryType.COMMIT),
        key=lambda r: r.meta.timestamp,
    )
    for r in commits:
        state.committed_txids.add(r.meta.txid)

    if delay_persistence:
        state.persisted_txids = _persisted_prefix(records, commits)
    else:
        state.persisted_txids = set(state.committed_txids)

    array = controller.nvm.array

    # Roll forward persisted transactions, in commit order; within one
    # transaction the per-region log order matches per-word program order.
    by_tx: Dict[int, List[ScannedRecord]] = {}
    for r in records:
        if r.meta.type is not EntryType.COMMIT:
            by_tx.setdefault(r.meta.txid, []).append(r)
    commit_timestamp = {r.meta.txid: r.meta.timestamp for r in commits}
    for commit in commits:
        txid = commit.meta.txid
        if txid not in state.persisted_txids:
            continue
        for r in by_tx.get(txid, ()):
            if r.redo is None:
                # Undo-only entries carry nothing to roll forward; the
                # committed data persisted in place before the commit.
                continue
            if verify_decode:
                state.decode_verified_words += _verify_decode(controller, r)
            array.write_logical(r.meta.addr, r.redo)
            state.redone_words += 1

    # Roll back everything else, youngest transaction first (committed
    # order by timestamp, in-flight transactions after all committed ones,
    # ordered by txid — begin order in this machine).
    undo_records = [
        r
        for r in records
        if r.meta.type in (EntryType.UNDO_REDO, EntryType.UNDO)
        and r.meta.txid not in state.persisted_txids
    ]
    undo_records.sort(
        key=lambda r: (
            commit_timestamp.get(r.meta.txid, float("inf")),
            r.meta.txid,
            r.position,
        )
    )
    for r in reversed(undo_records):
        if verify_decode:
            state.decode_verified_words += _verify_decode(controller, r)
        array.write_logical(r.meta.addr, r.undo)
        state.undone_words += 1

    return state
