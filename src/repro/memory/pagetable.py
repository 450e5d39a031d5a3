"""Durable page-table state for the copy-on-write paging design.

The *NVMM cache design: Logging vs. Paging* line of work persists updates
by copying each touched page to a shadow frame and atomically flipping a
mapping at commit.  On our substrate the value oracle reads *home*
addresses, so the model is undo-style shadow paging: the shadow frame
keeps the pre-transaction image, home pages update in place, and the
commit record is the atomic "flip" that retires the shadow.  Recovery
copies live shadows back over the home pages of uncommitted
transactions.

Durable layout (all above the central log region):

- control line at ``aux_base``: word 0 holds the *watermark* W — every
  page-table entry with slot index below W is retired;
- PTE slots from ``aux_base + 64``, one 64-byte line each: word 0 is the
  packed header (valid | tid | txid), word 1 the page index;
- shadow frames above the PTE area, one ``page_bytes`` frame per slot,
  so a slot's shadow address is derived, never stored.

Slots allocate monotonically and are never reused, which makes the
recovery scan (walk slots until the first invalid header) sound, and
makes the watermark a plain high-water mark: it only ever advances, and
only past slots whose transactions have closed.
"""

from typing import Tuple

from repro.common.config import SystemConfig
from repro.memory.controller import MemoryController
from repro.nvm.module import WriteKind

#: Address space reserved for PTE slots (sparse, so reservation is free).
MAX_PTE_SLOTS = 1 << 20

_VALID_BIT = 1
_TID_SHIFT = 1
_TXID_SHIFT = 9


def paging_aux_base(config: SystemConfig) -> int:
    """Base address of the page-table region (above the central log)."""
    return (
        config.nvmm_base
        + config.nvm.size_bytes
        + config.logging.log_region_bytes
    )


def pack_pte_header(tid: int, txid: int) -> int:
    return _VALID_BIT | ((tid & 0xFF) << _TID_SHIFT) | ((txid & 0xFFFF) << _TXID_SHIFT)


def unpack_pte_header(header: int) -> Tuple[bool, int, int]:
    """(valid, tid, txid) from a packed PTE header word."""
    return (
        bool(header & _VALID_BIT),
        (header >> _TID_SHIFT) & 0xFF,
        (header >> _TXID_SHIFT) & 0xFFFF,
    )


class PageTable:
    """Volatile allocator over the durable PTE + shadow-frame layout."""

    def __init__(self, controller: MemoryController, config: SystemConfig) -> None:
        self.controller = controller
        self.config = config
        self.page_bytes = config.logging.page_bytes
        self.aux_base = paging_aux_base(config)
        self.control_addr = self.aux_base
        self.slot_base = self.aux_base + 64
        self.shadow_base = self.slot_base + MAX_PTE_SLOTS * 64
        self.alloc = 0          # next slot index (monotone, never reused)
        self.watermark = 0      # volatile copy of the durable watermark

    def slot_addr(self, index: int) -> int:
        return self.slot_base + index * 64

    def shadow_addr(self, index: int) -> int:
        return self.shadow_base + index * self.page_bytes

    def allocate(self) -> int:
        index = self.alloc
        self.alloc += 1
        return index

    def persist_header(
        self, index: int, tid: int, txid: int, page_index: int, now_ns: float
    ) -> float:
        """Write a slot's validating header + page index (one request)."""
        schedule = self.controller.nvm.write_log_entry(
            self.slot_addr(index),
            [pack_pte_header(tid, txid), page_index],
            now_ns,
            kind=WriteKind.LOG,
        )
        return now_ns + schedule.stall_ns

    def persist_watermark(self, value: int, now_ns: float) -> float:
        self.watermark = value
        schedule = self.controller.nvm.write_log_entry(
            self.control_addr, [value], now_ns, kind=WriteKind.LOG
        )
        return now_ns + schedule.stall_ns
