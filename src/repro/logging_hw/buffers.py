"""Volatile log buffers (FIFOs) with coalescing and eager eviction.

Both MorLog buffers and the FWB baseline's log buffer are instances of
:class:`LogBuffer`:

- entries coalesce by (tid, txid, word address): an undo+redo entry keeps
  its *oldest* undo and takes the *newest* redo (CONSEQUENCE 1 of the
  paper), accumulating the per-byte dirty flag;
- an entry is evicted to NVMM when the buffer is full (FIFO order) or when
  it has aged past N cycles — N below the minimum cache-traversal latency,
  which is what keeps undo data ahead of in-place updates (section III-B);
- with SLDE dirty flags available, entries whose log data are completely
  clean are dropped instead of written ("silent log writes", section
  IV-A).
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.stats import StatGroup
from repro.logging_hw.entries import EntryType, LogEntry


@dataclass(slots=True)
class BufferedEntry:
    """A log entry while it lives in a volatile buffer."""

    entry: LogEntry
    insert_ns: float   # age runs from FIRST insertion (ordering bound)


class LogBuffer:
    """A bounded FIFO of log entries with coalescing."""

    def __init__(
        self,
        name: str,
        capacity: int,
        evict_age_ns: Optional[float],
        drop_silent: bool,
        stats: Optional[StatGroup] = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("buffer capacity cannot be negative")
        self.name = name
        self.capacity = capacity
        self.evict_age_ns = evict_age_ns
        self.drop_silent = drop_silent
        self.stats = stats if stats is not None else StatGroup(name)
        self._entries: "OrderedDict[Tuple[int, int, int], BufferedEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[int, int, int]) -> bool:
        return key in self._entries

    def find(self, key: Tuple[int, int, int]) -> Optional[BufferedEntry]:
        return self._entries.get(key)

    # ------------------------------------------------------------------
    # Insertion / coalescing
    # ------------------------------------------------------------------

    def insert(self, entry: LogEntry, now_ns: float) -> List[LogEntry]:
        """Add or coalesce an entry; returns entries evicted for capacity.

        Coalescing keeps the existing entry's FIFO slot and insertion time
        (the eviction deadline protects the *oldest* undo data) and merges
        log data per CONSEQUENCE 1.
        """
        if self.drop_silent and entry.dirty_mask == 0:
            self.stats.add("silent_drops")
            return []
        existing = self._entries.get(entry.key)
        if existing is not None:
            existing.entry = self._coalesce(existing.entry, entry)
            self.stats.add("coalesced")
            return []
        evicted: List[LogEntry] = []
        while len(self._entries) >= self.capacity:
            _key, victim = self._entries.popitem(last=False)
            evicted.append(victim.entry)
            self.stats.add("capacity_evictions")
        self._entries[entry.key] = BufferedEntry(entry, now_ns)
        self.stats.add("inserts")
        return evicted

    @staticmethod
    def _coalesce(old: LogEntry, new: LogEntry) -> LogEntry:
        if old.type is not new.type:
            raise ValueError("cannot coalesce entries of different types")
        mask = old.dirty_mask | new.dirty_mask
        if old.type is EntryType.UNDO_REDO:
            # Oldest undo, newest redo; the mask accumulates byte dirtiness
            # across the intermediate values (a safe superset of
            # diff(undo, newest redo)).
            return LogEntry(
                type=EntryType.UNDO_REDO,
                tid=old.tid,
                txid=old.txid,
                addr=old.addr,
                undo=old.undo,
                redo=new.redo,
                dirty_mask=mask,
            )
        if old.type is EntryType.UNDO:
            # Only the oldest undo matters; later writes change nothing.
            return LogEntry(
                type=EntryType.UNDO,
                tid=old.tid,
                txid=old.txid,
                addr=old.addr,
                undo=old.undo,
                redo=old.redo,
                dirty_mask=mask,
            )
        return LogEntry(
            type=EntryType.REDO,
            tid=old.tid,
            txid=old.txid,
            addr=old.addr,
            redo=new.redo,
            dirty_mask=mask,
        )

    # ------------------------------------------------------------------
    # Eviction / removal
    # ------------------------------------------------------------------

    def pop_expired(self, now_ns: float) -> Sequence[LogEntry]:
        """Remove entries older than the eager-eviction deadline.

        Runs on every simulated load and store, so an empty buffer, one
        with no age bound or one whose head has not aged returns an
        empty tuple after one comparison.  The head is read afresh on
        every call: entries leave from anywhere in the FIFO (by key,
        transaction or address range) and the cores' clocks do not rise
        monotonically across inserts, so no deadline can be kept.
        """
        entries = self._entries
        age = self.evict_age_ns
        if (
            age is None
            or not entries
            or now_ns - next(iter(entries.values())).insert_ns < age
        ):
            return ()
        out: List[LogEntry] = []
        while entries:
            key = next(iter(entries))
            buffered = entries[key]
            if now_ns - buffered.insert_ns < age:
                break
            del entries[key]
            out.append(buffered.entry)
        if out:
            self.stats.add("age_evictions", len(out))
        return out

    def pop_key(self, key: Tuple[int, int, int]) -> Optional[LogEntry]:
        buffered = self._entries.pop(key, None)
        return buffered.entry if buffered is not None else None

    def pop_tx(self, tid: int, txid: int) -> List[LogEntry]:
        """Remove all of one transaction's entries, in FIFO order."""
        keys = [k for k, b in self._entries.items() if k[0] == tid and k[1] == txid]
        return [self._entries.pop(k).entry for k in keys]

    def pop_addr_range(self, base_addr: int, size: int) -> List[LogEntry]:
        """Remove entries whose home word falls inside [base, base+size)."""
        keys = [
            k for k in self._entries if base_addr <= k[2] < base_addr + size
        ]
        return [self._entries.pop(k).entry for k in keys]

    def pop_all(self) -> List[LogEntry]:
        out = [b.entry for b in self._entries.values()]
        self._entries.clear()
        return out
