"""Online write-ahead-logging order checker.

The correctness backbone of every design here is CONSEQUENCE-1-compatible
WAL ordering: *the oldest undo data of a word must be persistent before
any in-place NVMM write overwrites the word's pre-transaction value*.
This monitor verifies the invariant while the simulation runs:

- it watches transactional stores (via ``System.trace``) to learn each
  in-flight transaction's (word, pre-transaction value) pairs;
- it watches the log region's appends to learn when each word's
  undo+redo entry became persistent and when transactions commit;
- it watches the memory controller's in-place NVMM data writes and
  records a violation whenever a write would change a tracked word away
  from its pre-transaction value while its undo is still volatile.

Attach with :func:`attach_wal_checker`; compose with another trace
consumer by passing it as ``forward_to``.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.bitops import WORD_BYTES
from repro.logging_hw.entries import EntryType


@dataclass
class WalViolation:
    addr: int
    txid: int
    pre_tx_value: int
    written_value: int

    def __str__(self) -> str:
        return (
            "WAL violation: word %#x of tx %d overwritten (%#x -> %#x) "
            "before its undo persisted" % (
                self.addr, self.txid, self.pre_tx_value, self.written_value,
            )
        )


class WalChecker:
    """Tracks in-flight words and flags premature in-place writes."""

    def __init__(self, forward_to=None) -> None:
        # (txid, addr) -> pre-transaction value, while undo not persisted.
        self._unlogged: Dict[Tuple[int, int], int] = {}
        # addr -> {txid} with any live tracking (for the write hook).
        self._by_addr: Dict[int, set] = {}
        self.violations: List[WalViolation] = []
        self.checked_writes = 0
        self._forward = forward_to

    # -- System.trace hook ------------------------------------------------

    def on_tx_store(self, tid: int, txid: int, addr: int, old: int, new: int) -> None:
        key = (txid, addr)
        if key not in self._unlogged:
            self._unlogged[key] = old
            self._by_addr.setdefault(addr, set()).add(txid)
        if self._forward is not None:
            self._forward.on_tx_store(tid, txid, addr, old, new)

    # -- LogRegion append hook ----------------------------------------------

    def on_log_append(self, record) -> None:
        if record.type is EntryType.UNDO_REDO:
            self._discard((record.txid, record.addr))
        elif record.type is EntryType.COMMIT:
            # Commit implies every undo of the tx was appended already
            # (FIFO order); drop any leftovers defensively.
            for key in [k for k in self._unlogged if k[0] == record.txid]:
                self._discard(key)

    def _discard(self, key: Tuple[int, int]) -> None:
        if self._unlogged.pop(key, None) is not None:
            txids = self._by_addr.get(key[1])
            if txids is not None:
                txids.discard(key[0])
                if not txids:
                    del self._by_addr[key[1]]

    # -- MemoryController write hook ---------------------------------------

    def on_data_write(self, line_addr: int, words) -> None:
        self.checked_writes += 1
        for i, value in enumerate(words):
            addr = line_addr + i * WORD_BYTES
            for txid in self._by_addr.get(addr, ()):
                pre = self._unlogged.get((txid, addr))
                if pre is not None and value != pre:
                    self.violations.append(
                        WalViolation(addr, txid, pre, value)
                    )

    def assert_clean(self) -> None:
        if self.violations:
            raise AssertionError(
                "%d WAL violations; first: %s"
                % (len(self.violations), self.violations[0])
            )


def attach_wal_checker(system, forward_to=None) -> WalChecker:
    """Wire a :class:`WalChecker` into a system's debug taps."""
    checker = WalChecker(forward_to=forward_to)
    system.trace = checker
    system.controller.data_write_observer = checker.on_data_write
    for region in system.log_region.regions:
        region.append_observer = checker.on_log_append
    return checker
