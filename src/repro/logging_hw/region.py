"""The circular log region (paper section III-A).

A single-consumer, single-producer Lamport circular buffer of 64-bit slots
in NVMM.  The producer (log controller) appends entries at the tail; the
consumer (log truncation) advances the head once a transaction's updated
data are persistent.  Head state is persisted in a small control block at
the region base so recovery can find the log after a crash; the tail is
recovered by scanning forward until the torn-bit parity or the sequence
chain breaks.

Entries never straddle the wrap point: when the remaining slots cannot hold
the entry, the tail jumps back to the first entry slot and the pass parity
(torn bit) flips.
"""

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from repro.common.bitops import WORD_BYTES, WORDS_PER_LINE
from repro.common.errors import LogOverflowError
from repro.common.stats import StatGroup
from repro.logging_hw.entries import ENTRY_SLOTS, SEQ_MODULUS, EntryType, pack_meta_words
from repro.memory.controller import MemoryController
from repro.nvm.module import WriteKind
from repro.nvm.timing import WriteSchedule

# The first cache line of the region is the control block.
CONTROL_SLOTS = WORDS_PER_LINE
MAX_ENTRY_SLOTS = max(ENTRY_SLOTS)
# Each entry type's write kind, indexed by the type's value.
_WRITE_KINDS = tuple(WriteKind.COMMIT if t is EntryType.COMMIT else WriteKind.LOG
                     for t in EntryType)
_REDO = EntryType.REDO._value_
_COMMIT = EntryType.COMMIT._value_


@dataclass(slots=True)
class LiveEntry:
    """Volatile index of one entry, used for truncation decisions."""

    offset: int        # slot offset inside the region
    n_slots: int
    type: EntryType
    tid: int
    txid: int
    seq: int


class LogRegion:
    """Circular log with durable head pointer and torn-bit passes."""

    def __init__(
        self,
        controller: MemoryController,
        base_addr: int,
        size_bytes: int,
        stats: Optional[StatGroup] = None,
        on_overflow: Optional[Callable[[float], float]] = None,
    ) -> None:
        if size_bytes % WORD_BYTES:
            raise ValueError("log region size must be word aligned")
        self.controller = controller
        self.base_addr = base_addr
        self.region_bytes = size_bytes
        self.n_slots = size_bytes // WORD_BYTES
        if self.n_slots <= CONTROL_SLOTS + MAX_ENTRY_SLOTS:
            raise ValueError("log region too small")
        self.stats = stats if stats is not None else StatGroup("log_region")
        self.on_overflow = on_overflow
        self.head = CONTROL_SLOTS      # slot offset of the oldest live entry
        self.tail = CONTROL_SLOTS      # next free slot offset
        self.parity = 1                # torn bit of the current pass
        self.head_parity = 1           # torn bit valid at the head
        self.seq = 0                   # next sequence number
        self.head_seq = 0              # sequence number of the head entry
        self.live: Deque[LiveEntry] = deque()
        self._used_slots = 0
        # Optional debug tap: called with each record as it is appended
        # (used by the WAL-ordering checker).
        self.append_observer: Optional[Callable] = None
        # Fault-injection plan (installed by System.install_crash_plan).
        self.crash_plan = None
        # Trace bus (installed by a traced System); observation only.
        self.tracer = None
        self._persist_control(0.0)

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------

    @property
    def capacity_slots(self) -> int:
        return self.n_slots - CONTROL_SLOTS

    def used_slots(self) -> int:
        return self._used_slots

    def free_slots(self) -> int:
        return self.n_slots - CONTROL_SLOTS - self._used_slots

    def slot_addr(self, offset: int) -> int:
        return self.base_addr + offset * WORD_BYTES

    @property
    def regions(self) -> List["LogRegion"]:
        """This region alone: the shape :class:`LogRegionSet` answers."""
        return [self]

    def region_bases(self) -> List[int]:
        return [self.base_addr]

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def _reserve(self, n_slots: int, now_ns: float) -> float:
        # Keep one max-size entry of slack so head == tail stays
        # unambiguous (classic circular-buffer discipline).
        while self.free_slots() < n_slots + MAX_ENTRY_SLOTS:
            if self.on_overflow is None:
                raise LogOverflowError(
                    "log region full (%d live slots)" % self.used_slots()
                )
            freed_at = self.on_overflow(now_ns)
            now_ns = max(now_ns, freed_at)
            if self.free_slots() < n_slots + MAX_ENTRY_SLOTS:
                raise LogOverflowError("overflow handler could not free space")
        return now_ns

    def append(
        self, record, now_ns: float, dirty_mask: Optional[int] = None
    ) -> WriteSchedule:
        """Append a log entry or commit record and write it to NVMM.

        The record's type decides its data words; ``dirty_mask`` is the
        entry's per-byte dirty flag for SLDE, None without dirty flags.
        """
        entry_type = record.type
        type_value = entry_type._value_
        n_slots = ENTRY_SLOTS[type_value]
        free = self.n_slots - CONTROL_SLOTS - self._used_slots
        if free < n_slots + MAX_ENTRY_SLOTS:
            # Full: keep one max-size entry of slack (see _reserve).
            now_ns = self._reserve(n_slots, now_ns)

        if self.n_slots - self.tail < n_slots:
            # Wrap: flip the pass parity, restart after the control block.
            self.tail = CONTROL_SLOTS
            self.parity ^= 1
            self.stats.add("wraps")
            if self.tracer is not None:
                self.tracer.emit("log-wrap", "log", now_ns)

        if type_value == _COMMIT:
            undo = redo = None
        elif type_value == _REDO:
            undo, redo = None, record.redo
        else:
            # An UNDO entry writes undo and redo too: four words into its
            # three slots, the last one over the next entry's first slot
            # (ROADMAP: the UNDO-entry spill, kept until the goldens move).
            undo, redo = record.undo, record.redo

        offset = self.tail
        seq = self.seq
        addr = self.base_addr + offset * WORD_BYTES
        # Looked up per call, so a shim set on the module instance sees it.
        schedule = self.controller.nvm.write_log_entry(
            addr,
            pack_meta_words(record, self.parity, seq),
            now_ns,
            undo,
            redo,
            dirty_mask,
            _WRITE_KINDS[type_value],
        )
        self.tail = offset + n_slots
        self.seq = (seq + 1) % SEQ_MODULUS
        self.live.append(
            LiveEntry(offset, n_slots, entry_type, record.tid, record.txid, seq)
        )
        self._used_slots += n_slots
        self.stats.add("entries_appended")
        if self.append_observer is not None:
            self.append_observer(record)
        if self.tracer is not None:
            self.tracer.emit(
                "log-append",
                "log",
                now_ns,
                txid=record.txid,
                addr=addr,
                entry=entry_type.name.lower(),
                slots=n_slots,
                seq=seq,
            )
        return schedule

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------

    def truncate(self, can_free: Callable[[LiveEntry], bool], now_ns: float) -> int:
        """Free the longest eligible prefix of live entries.

        ``can_free(entry)`` decides eligibility (e.g. "its transaction
        committed before the last two FWB scans").  Returns the number of
        entries freed; persists the new head pointer when anything moved.
        """
        freed = 0
        while self.live and can_free(self.live[0]):
            entry = self.live.popleft()
            self._used_slots -= entry.n_slots
            freed += 1
            if self.live:
                nxt = self.live[0]
                self.head = nxt.offset
                self.head_seq = nxt.seq
                if nxt.offset < entry.offset:
                    self.head_parity ^= 1
            else:
                self.head = self.tail
                self.head_seq = self.seq
                self.head_parity = self.parity
        if freed:
            if self.crash_plan is not None:
                # A crash here leaves the old durable head with entries
                # already freed in the volatile index — recovery must
                # tolerate re-scanning (and re-applying) the stale prefix.
                self.crash_plan.fire("log-truncate", head=self.head)
            self._persist_control(now_ns)
            self.stats.add("entries_truncated", freed)
            if self.tracer is not None:
                self.tracer.emit(
                    "log-truncate", "log", now_ns, freed=freed, head=self.head
                )
        return freed

    # ------------------------------------------------------------------
    # Durable control block
    # ------------------------------------------------------------------

    def _persist_control(self, now_ns: float) -> None:
        words = [self.head, self.head_seq, self.head_parity, 0, 0, 0, 0, 0]
        self.controller.nvm.write_data_line(self.base_addr, words, now_ns)

    @staticmethod
    def read_control(controller: MemoryController, base_addr: int):
        """Read (head, head_seq, head_parity) from the control block."""
        array = controller.nvm.array
        return (
            array.read_logical(base_addr),
            array.read_logical(base_addr + WORD_BYTES),
            array.read_logical(base_addr + 2 * WORD_BYTES),
        )


class LogRegionSet:
    """Distributed (per-thread) logs — paper section III-F.

    One :class:`LogRegion` per hardware thread, with the same append /
    truncate interface as a single region so the loggers are oblivious.
    Appends route by the record's TID; the commit-record timestamps order
    transactions across threads at recovery time (the TID in each entry
    becomes redundant, but we keep the shared entry format).
    """

    def __init__(
        self,
        controller: MemoryController,
        base_addr: int,
        total_bytes: int,
        n_threads: int,
        stats: Optional[StatGroup] = None,
        on_overflow: Optional[Callable[[float], float]] = None,
    ) -> None:
        if n_threads <= 0:
            raise ValueError("need at least one thread log")
        self.base_addr = base_addr
        per_region = (total_bytes // n_threads) & ~63
        self.region_bytes = per_region
        self.regions = [
            LogRegion(
                controller,
                base_addr + i * per_region,
                per_region,
                stats,
                on_overflow,
            )
            for i in range(n_threads)
        ]
        self.stats = self.regions[0].stats

    def region_for(self, tid: int) -> LogRegion:
        return self.regions[tid % len(self.regions)]

    def append(self, record, now_ns: float, dirty_mask=None):
        return self.region_for(record.tid).append(record, now_ns, dirty_mask)

    def truncate(self, can_free, now_ns: float) -> int:
        return sum(r.truncate(can_free, now_ns) for r in self.regions)

    def free_slots(self) -> int:
        return min(r.free_slots() for r in self.regions)

    def region_bases(self):
        return [r.base_addr for r in self.regions]
