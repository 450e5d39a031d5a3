"""Copy-on-write paging persistence (the Logging-vs-Paging baseline).

On the first store a transaction makes to a page, the whole page's home
image is copied to a freshly allocated shadow frame, line by line through
the NVMM data-write path, and a page-table entry validating the shadow is
persisted (see :mod:`repro.memory.pagetable` for the durable layout and
the undo-style shadowing rationale).  After that, stores to the page cost
nothing extra — the page-granularity copy *is* the log, which is exactly
the write-amplification tradeoff this baseline exists to measure against
word-granularity logging under small transactions.

Commit forces the transaction's dirty lines back (home pages now hold the
new image), then atomically flips the mapping: the ``page-flip`` crash
point fires and the commit record persists.  Recovery copies the shadow
frames of uncommitted transactions back over their home pages.

Page-table entries retire through a durable watermark advanced at every
force-write-back scan — never past an open transaction's oldest slot, so
a live shadow is always above the watermark.  Like InCLL, the design
needs the fwb-scan truncation horizon (a commit record must outlive the
watermark lag) and rejects ``tx-table`` truncation.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.cache.cacheline import CacheLine
from repro.common.bitops import WORD_BYTES, WORDS_PER_LINE
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.common.stats import StatGroup
from repro.logging_hw.base import HardwareLogger, TransactionInfo
from repro.logging_hw.recovery import RecoveredState, restore_undo_word
from repro.logging_hw.region import LogRegion
from repro.memory.controller import MemoryController
from repro.memory.pagetable import PageTable, paging_aux_base, unpack_pte_header


class PagingLogger(HardwareLogger):
    """Shadow-page copy-on-write with an atomic mapping flip at commit."""

    name = "paging"

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
                "CoW paging's watermark validity needs the fwb-scan "
                "truncation horizon; tx-table frees commit records before "
                "their page-table entries retire"
            )
        self.pagetable = PageTable(controller, config)
        self._page_bytes = config.logging.page_bytes
        # txid -> {page_index: slot index} of pages already shadowed.
        self._tx_pages: Dict[int, Dict[int, int]] = {}
        self._committed: Set[int] = set()

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------

    def _copy_page_to_shadow(
        self, tx: TransactionInfo, page_index: int, now_ns: float
    ) -> float:
        """First touch of a page: snapshot its home image to a shadow."""
        array = self.controller.nvm.array
        page_base = self.config.nvmm_base + page_index * self._page_bytes
        slot = self.pagetable.allocate()
        shadow = self.pagetable.shadow_addr(slot)
        line_bytes = self.config.caches.line_bytes
        for line_off in range(0, self._page_bytes, line_bytes):
            words = [
                array.read_logical(page_base + line_off + i * WORD_BYTES)
                for i in range(WORDS_PER_LINE)
            ]
            now_ns += self.controller.nvm.write_data_line(
                shadow + line_off, words, now_ns
            ).stall_ns
        # The header validates the shadow, so it persists last: a crash
        # mid-copy leaves a dead slot and an untouched home page.
        if self.crash_plan is not None:
            self.crash_plan.fire(
                "page-table-write", txid=tx.txid, addr=self.pagetable.slot_addr(slot)
            )
        now_ns = self.pagetable.persist_header(
            slot, tx.tid, tx.txid, page_index, now_ns
        )
        self._tx_pages.setdefault(tx.txid, {})[page_index] = slot
        self.stats.add("shadow_page_copies")
        self.stats.add(
            "shadow_lines_written", self._page_bytes // line_bytes
        )
        if self.tracer is not None:
            self.tracer.emit(
                "word-state", "word-state", now_ns,
                core=tx.tid, txid=tx.txid, addr=page_base,
                **{"from": "CLEAN", "to": "SHADOWED"},
            )
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
        page_index = (line.base_addr - self.config.nvmm_base) // self._page_bytes
        if page_index not in self._tx_pages.get(tx.txid, ()):
            now_ns = self._copy_page_to_shadow(tx, page_index, now_ns)
        self._track_line(tx, line.base_addr)
        return now_ns

    def commit_tx(self, tx: TransactionInfo, now_ns: float) -> float:
        now_ns = self._force_write_back(tx, now_ns)
        # The commit record is the atomic mapping flip: before it, the
        # shadows are authoritative (recovery restores them); after it,
        # the home pages are.
        if self.crash_plan is not None:
            self.crash_plan.fire("page-flip", txid=tx.txid)
        now_ns = self._commit_record(tx, now_ns, now_ns)
        self._committed.add(tx.txid)
        self._tx_pages.pop(tx.txid, None)
        return self._commit_tail(tx, now_ns)

    def on_fwb_scan(self, now_ns: float) -> float:
        """Advance the watermark past every closed transaction's slots.

        Slot allocation is monotone and transactions are serialized, so
        the oldest slot of any open transaction bounds how far W may
        move; with no transaction open it jumps to the allocation head.
        """
        open_slots = [
            min(pages.values())
            for txid, pages in self._tx_pages.items()
            if pages and txid not in self._committed
        ]
        target = min(open_slots) if open_slots else self.pagetable.alloc
        if target > self.pagetable.watermark:
            if self.crash_plan is not None:
                self.crash_plan.fire(
                    "page-table-write", addr=self.pagetable.control_addr
                )
            now_ns = self.pagetable.persist_watermark(target, now_ns)
            self.stats.add("watermark_advances")
        return now_ns

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover_design_state(self, state: RecoveredState) -> None:
        recover_paging(self.controller, self.config, state)


def recover_paging(
    controller: MemoryController, config: SystemConfig, state: RecoveredState
) -> None:
    """Copy live shadow frames back over uncommitted home pages.

    Walks PTE slots from 0 until the first invalid header (allocation is
    monotone, so that is the crash-time allocation head); restores the
    youngest live shadow first.  Reads only durable state and writes home
    words through ``write_logical`` exclusively.
    """
    array = controller.nvm.array
    table = PageTable(controller, config)
    watermark = array.read_logical(table.control_addr)
    live: List[Tuple[int, int, int, int]] = []  # (slot, tid, txid, page)
    slot = 0
    while True:
        valid, tid, txid = unpack_pte_header(array.read_logical(table.slot_addr(slot)))
        if not valid:
            break
        page_index = array.read_logical(table.slot_addr(slot) + WORD_BYTES)
        if slot >= watermark and txid not in state.committed_txids:
            live.append((slot, tid, txid, page_index))
        slot += 1
    page_words = config.logging.page_bytes // WORD_BYTES
    for slot, tid, txid, page_index in reversed(live):
        shadow = table.shadow_addr(slot)
        page_base = config.nvmm_base + page_index * config.logging.page_bytes
        for i in range(page_words):
            restore_undo_word(
                array, state, page_base + i * WORD_BYTES,
                array.read_logical(shadow + i * WORD_BYTES),
                tid, txid, paging_aux_base(config), slot * page_words + i,
            )
