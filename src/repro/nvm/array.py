"""The NVMM array: encoded word storage with per-write cost accounting.

Each 64-bit word slot owns 22 TLC data cells plus a small group of *tag
cells* holding the sideband metadata (encoding type flag, expansion policy,
DLDC dirty flag).  A write encodes the word (done by the module controller),
maps the payload onto cell levels, and programs data and tag cells under
DCW; cells beyond the encoded payload keep their old levels — that is where
expansion coding and DLDC save writes.

Slot state lives in maps keyed by word address, not in one object per
slot.  ``_logical`` holds the *logical* value of every slot that exists
(so recovery and tests can check decode(read(addr)) against ground
truth); ``_cells`` holds one int per slot that has ever programmed a
cell: the data cells at bits 0-65, packed 3 bits per cell with cell *i*
at bits 3i..3i+2 as :func:`~repro.encoding.expansion.pack_payload` lays
them out, the tag cells at bits 66-86 as the 21-bit tag value itself,
and the slot's cumulative programmed-cell count (wear) from bit 87;
``_encoded`` holds the last encoding written to each slot.  Both int
maps hold nothing but ints, so the cyclic garbage collector never
tracks them.

A dense window of slots, such as the circular log region, can instead be
stored by page (:meth:`NvmArray.store_by_page`): each 4 KB page keeps
its slots' logical values in a 64-bit ``array``, their packed cell state
and encodings in two lists, and which of them exist in a ``bytearray``,
with no per-slot key or dict entry.  :class:`StoredWord` is only the
detached view that :meth:`NvmArray.read_word` and
:meth:`NvmArray.snapshot` build.  The array supports snapshot/restore
for crash-injection testing.
"""

from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.bitops import WORD_BYTES, WORD_MASK, align_down
from repro.common.config import NVMConfig
from repro.common.stats import StatGroup
from repro.encoding.base import EncodedWord
from repro.encoding.expansion import CELLS_PER_WORD, ExpansionPolicy, pack_payload
from repro.nvm.cell import cost_tables, dcw_cost, pristine_cost_table

# Sideband metadata per word: 3-bit encoding type flag, 2-bit expansion
# policy, 8-bit dirty flag, plus up to 8 codec tag-payload bits (FPC
# prefix, flip bit, ...) => 21 bits => 7 tag cells at 3 bits per cell.
TAG_BITS = 21
TAG_CELLS = (TAG_BITS + 2) // 3

#: Bound on each array's DCW cost memo, keyed on (old cells, new cells).
#: Per array because the cost depends on the array's config
#: (``write_latency_scale``); cleared when full.
DCW_MEMO_ENTRIES = 8192

_METHOD_IDS = {"raw": 0, "fpc": 1, "crade": 2, "dldc": 3, "flip-n-write": 4, "slde": 5}
# Keyed by ``policy._value_``: hashing an enum member runs Python code.
_POLICY_IDS = {
    ExpansionPolicy.RAW._value_: 0,
    ExpansionPolicy.EXPAND2._value_: 1,
    ExpansionPolicy.EXPAND1._value_: 2,
}
_ALIGN = ~(WORD_BYTES - 1)

# Bit layout of a slot's ``NvmArray._cells`` entry: data cells, then tag
# cells, then wear.
_TAG_SHIFT = 3 * CELLS_PER_WORD
_WEAR_SHIFT = _TAG_SHIFT + 3 * TAG_CELLS
_DATA_MASK = (1 << _TAG_SHIFT) - 1
_TAG_MASK = (1 << 3 * TAG_CELLS) - 1

#: Word slots per page of the paged window (a 4 KB page).
PAGE_WORDS = 512
_PAGE_SHIFT = 12
_SLOT_MASK = PAGE_WORDS - 1


@dataclass(slots=True)
class StoredWord:
    """View of one word slot's state (cells packed 3 bits per cell).

    Built fresh by each read: assigning to it leaves the array as it was.
    """

    logical: int
    data_cells: int
    tag_cells: int
    encoded: Optional[EncodedWord]


@dataclass(frozen=True, slots=True)
class WriteCost:
    """Accounting result of one word write or write request."""

    cells_programmed: int
    bits_written: int
    latency_ns: float
    energy_pj: float
    silent: bool


def _tag_value(encoded: EncodedWord) -> int:
    method = _METHOD_IDS.get(encoded.method, 7)
    policy = _POLICY_IDS[encoded.policy._value_]
    dirty = encoded.dirty_mask or 0
    tag_payload = encoded.tag_payload & 0xFF
    return method | (policy << 3) | (dirty << 5) | (tag_payload << 13)


class _Page:
    """The slots of one page of the paged window, as parallel arrays."""

    __slots__ = ("logical", "cells", "encoded", "present")

    def __init__(self) -> None:
        self.logical = array("Q", bytes(8 * PAGE_WORDS))
        # Packed cell state as in ``NvmArray._cells``; 0 when pristine.
        self.cells: List[int] = [0] * PAGE_WORDS
        self.encoded: List[Optional[EncodedWord]] = [None] * PAGE_WORDS
        # 1 where the slot exists (the paged twin of a ``_logical`` key).
        self.present = bytearray(PAGE_WORDS)

    def drop(self, i: int) -> None:
        """Delete slot ``i``: its value, cells and encoding, not its wear."""
        self.present[i] = 0
        self.logical[i] = 0
        self.encoded[i] = None
        self.cells[i] = self.cells[i] >> _WEAR_SHIFT << _WEAR_SHIFT


class NvmArray:
    """Sparse word-granularity NVMM array."""

    def __init__(self, config: NVMConfig, stats: Optional[StatGroup] = None) -> None:
        self._config = config
        # A key here is what "the slot exists" means; insertion order is
        # slot-creation order.
        self._logical: Dict[int, int] = {}
        # Data cells | tag cells << _TAG_SHIFT | wear << _WEAR_SHIFT, for
        # each slot that has programmed a cell (absent: pristine, no wear).
        self._cells: Dict[int, int] = {}
        self._encoded: Dict[int, EncodedWord] = {}
        self.stats = stats if stats is not None else StatGroup("nvm_array")
        # Active logical-write journal (crash-injection recovery probes).
        self._journal: Optional[Dict[int, Optional[int]]] = None
        self._cost_tables = cost_tables(config)
        self._dcw_memo: Dict[Tuple[int, int], Tuple[int, float, float]] = {}
        self._pristine = pristine_cost_table(config)
        # The paged window [_paged_lo, _paged_hi) and its pages, keyed by
        # ``address >> _PAGE_SHIFT``.
        self._paged_lo = self._paged_hi = 0
        self._pages: Dict[int, _Page] = {}

    @staticmethod
    def word_addr(addr: int) -> int:
        return align_down(addr, WORD_BYTES)

    @property
    def wear(self) -> Dict[int, int]:
        """Per-word cumulative programmed-cell counts (endurance, §VI-C).

        Slots outside the paged window come first, in the order they were
        first programmed, then the paged window's in address order.
        """
        wear = {addr: state >> _WEAR_SHIFT for addr, state in self._cells.items()}
        for base, page in self._page_items():
            for i, state in enumerate(page.cells):
                if state:
                    wear[base + i * WORD_BYTES] = state >> _WEAR_SHIFT
        return wear

    def store_by_page(self, lo: int, hi: int) -> None:
        """Keep the word slots in ``[lo, hi)`` in per-page storage.

        Meant for a dense window such as the circular log region, whose
        slots would otherwise take one entry in each of three maps.  Only
        where slots live changes, not what any operation returns, except
        the order of :meth:`snapshot` and :attr:`wear`.  Call it before
        the window holds a slot, at most once per array.
        """
        if self._paged_lo < self._paged_hi:
            raise ValueError("the array already has a paged window")
        if any(lo <= addr < hi for addr in self._logical) or any(
            lo <= addr < hi for addr in self._cells
        ):
            raise ValueError("the window already holds slots")
        self._paged_lo, self._paged_hi = lo, hi

    def _page(self, waddr: int) -> _Page:
        """The page holding ``waddr`` (in the window), created if absent."""
        page = self._pages.get(waddr >> _PAGE_SHIFT)
        if page is None:
            page = self._pages[waddr >> _PAGE_SHIFT] = _Page()
        return page

    def _page_items(self) -> Iterator[Tuple[int, _Page]]:
        """``(base address, page)`` of every page, in address order."""
        for number in sorted(self._pages):
            yield number << _PAGE_SHIFT, self._pages[number]

    def _cost_miss(self, key: Tuple[int, int]) -> Tuple[int, float, float]:
        """:func:`~repro.nvm.cell.dcw_cost` of ``key``, memoized."""
        memo = self._dcw_memo
        if len(memo) >= DCW_MEMO_ENTRIES:
            memo.clear()
        cost = memo[key] = dcw_cost(key[0], key[1], *self._cost_tables)
        return cost

    def clear_dcw_memo(self) -> None:
        """Drop the DCW memo's entries (result-inert)."""
        self._dcw_memo.clear()

    def write_words(
        self,
        addr: int,
        encoded: Sequence[EncodedWord],
        logicals: Sequence[int],
    ) -> WriteCost:
        """Program one write request's words, consecutive from ``addr``.

        ``logicals[i]`` is the decoded value word ``i`` now represents
        (kept so reads and recovery can be checked against ground truth).
        A silent encoding programs nothing and leaves its slot untouched.
        The words program in parallel: the request's latency is its
        slowest word's, its energy the sum, added word by word in order
        (as is the ``energy_pj`` counter, so float rounding matches a
        word-at-a-time accounting).  The request is silent iff it
        programs no cell.

        A never-programmed slot (cell state 0: every cell at level 0, no
        wear) skips the old-cell lookup and the DCW memo.  Its cost comes
        from :func:`~repro.nvm.cell.pristine_cost_table`, three cells per
        lookup, adding each cell's energy, or an exact ``0.0`` for a cell
        left at level 0, in ascending cell order: the same sum
        :func:`~repro.nvm.cell.dcw_cost` makes.
        """
        logical_map = self._logical
        cells_map = self._cells
        cells_get = cells_map.get
        encoded_map = self._encoded
        stats = self.stats
        memo_get = self._dcw_memo.get
        miss = self._cost_miss
        pristine = self._pristine
        lo = self._paged_lo
        hi = self._paged_hi
        page_number = -1
        waddr = (addr & _ALIGN) - WORD_BYTES
        cells_total = 0
        bits_total = 0
        latency = 0.0
        energy = 0.0
        written = 0
        silent = 0
        counter = stats.get("energy_pj")
        for enc, logical in zip(encoded, logicals):
            waddr += WORD_BYTES
            if enc.silent:
                silent += 1
                continue
            written += 1
            if lo <= waddr < hi:
                if waddr >> _PAGE_SHIFT != page_number:
                    page_number = waddr >> _PAGE_SHIFT
                    page = self._page(waddr)
                    page_logical = page.logical
                    page_cells = page.cells
                    page_encoded = page.encoded
                    page_present = page.present
                i = waddr >> 3 & _SLOT_MASK
                state = page_cells[i]
            else:
                i = -1
                state = cells_get(waddr, 0)
            new, n_cells = pack_payload(enc.payload, enc.payload_bits, enc.policy)
            if state:
                # Programmed before: DCW against the old cells, memoized.
                old = state & _DATA_MASK
                if n_cells < CELLS_PER_WORD:
                    keep = 3 * n_cells
                    new |= old >> keep << keep
                if new != old:
                    key = (old, new)
                    cells, word_latency, word_energy = memo_get(key) or miss(key)
                    state ^= old ^ new
                else:
                    cells, word_latency, word_energy = 0, 0.0, 0.0
                if enc.tag_bits > 0 or enc.method != "raw":
                    old = (state >> _TAG_SHIFT) & _TAG_MASK
                    new = _tag_value(enc)
                    if new != old:
                        key = (old, new)
                        tag_cells, tag_latency, tag_energy = memo_get(key) or miss(key)
                        cells += tag_cells
                        if tag_latency > word_latency:
                            word_latency = tag_latency
                        word_energy += tag_energy
                        state ^= (old ^ new) << _TAG_SHIFT
            else:
                # Never programmed: old cells and tags all at level 0.
                # Walk the image three cells per table lookup (inlined,
                # for data and then tags, as the memo path above is).
                state = new
                cells = 0
                word_latency = word_energy = 0.0
                while new:
                    chunk = new & 511
                    if chunk:
                        n, cell_latency, e0, e1, e2 = pristine[chunk]
                        cells += n
                        if cell_latency > word_latency:
                            word_latency = cell_latency
                        word_energy = word_energy + e0 + e1 + e2
                    new >>= 9
                if enc.tag_bits > 0 or enc.method != "raw":
                    new = _tag_value(enc)
                    state |= new << _TAG_SHIFT
                    tag_latency = tag_energy = 0.0
                    while new:
                        chunk = new & 511
                        if chunk:
                            n, cell_latency, e0, e1, e2 = pristine[chunk]
                            cells += n
                            if cell_latency > tag_latency:
                                tag_latency = cell_latency
                            tag_energy = tag_energy + e0 + e1 + e2
                        new >>= 9
                    if tag_latency > word_latency:
                        word_latency = tag_latency
                    word_energy += tag_energy
            if i < 0:
                logical_map[waddr] = logical & WORD_MASK
                encoded_map[waddr] = enc
                if cells:
                    cells_map[waddr] = state + (cells << _WEAR_SHIFT)
            else:
                page_logical[i] = logical & WORD_MASK
                page_encoded[i] = enc
                page_present[i] = 1
                if cells:
                    page_cells[i] = state + (cells << _WEAR_SHIFT)
            if cells:
                cells_total += cells
                if word_latency > latency:
                    latency = word_latency
                energy += word_energy
                counter += word_energy
            bits_total += enc.payload_bits + enc.tag_bits
        if written:
            stats.add("word_writes", written)
            stats.add("cells_programmed", cells_total)
            stats.add("bits_written", bits_total)
            stats.set("energy_pj", counter)
        if silent:
            stats.add("silent_word_writes", silent)
        return WriteCost(cells_total, bits_total, latency, energy, cells_total == 0)

    def write_word(self, addr: int, encoded: EncodedWord, logical: int) -> WriteCost:
        """Program one encoded word; returns the DCW cost."""
        return self.write_words(addr, (encoded,), (logical,))

    def _view(self, waddr: int, logical: int) -> StoredWord:
        state = self._cells.get(waddr, 0)
        return StoredWord(
            logical,
            state & _DATA_MASK,
            (state >> _TAG_SHIFT) & _TAG_MASK,
            self._encoded.get(waddr),
        )

    @staticmethod
    def _page_view(page: _Page, i: int) -> StoredWord:
        state = page.cells[i]
        return StoredWord(
            page.logical[i],
            state & _DATA_MASK,
            (state >> _TAG_SHIFT) & _TAG_MASK,
            page.encoded[i],
        )

    def read_word(self, addr: int) -> StoredWord:
        """Return a view of a word slot's state (pristine if unwritten)."""
        waddr = addr & _ALIGN
        if self._paged_lo <= waddr < self._paged_hi:
            page = self._pages.get(waddr >> _PAGE_SHIFT)
            if page is None:
                return StoredWord(0, 0, 0, None)
            return self._page_view(page, waddr >> 3 & _SLOT_MASK)
        return self._view(waddr, self._logical.get(waddr, 0))

    def read_logical(self, addr: int) -> int:
        waddr = addr & _ALIGN
        if self._paged_lo <= waddr < self._paged_hi:
            page = self._pages.get(waddr >> _PAGE_SHIFT)
            return 0 if page is None else page.logical[waddr >> 3 & _SLOT_MASK]
        return self._logical.get(waddr, 0)

    def write_logical(self, addr: int, value: int) -> None:
        """Set a slot's logical value without cost accounting.

        Used by the recovery routine, which copies log data to home
        locations outside the measured execution window.
        """
        waddr = addr & _ALIGN
        journal = self._journal
        if self._paged_lo <= waddr < self._paged_hi:
            page = self._page(waddr)
            i = waddr >> 3 & _SLOT_MASK
            if journal is not None and waddr not in journal:
                journal[waddr] = page.logical[i] if page.present[i] else None
            page.logical[i] = value & WORD_MASK
            page.present[i] = 1
            return
        if journal is not None and waddr not in journal:
            journal[waddr] = self._logical.get(waddr)
        self._logical[waddr] = value & WORD_MASK

    def bulk_write_logical(self, addrs, values) -> None:
        """Install many logical words at once (trace-replay setup path).

        Semantically ``write_logical`` in a loop, with the per-call
        aligning/journal overhead hoisted out; replaying a recorded
        setup image is pure data movement, so this is the hot path of
        :func:`repro.replay.replayer.apply_trace_setup`.
        """
        if self._journal is not None:
            for addr, value in zip(addrs, values):
                self.write_logical(addr, value)
            return
        # Duplicate addresses keep the last value, same as sequential
        # writes.
        align = _ALIGN
        image = {addr & align: value & WORD_MASK for addr, value in zip(addrs, values)}
        lo, hi = self._paged_lo, self._paged_hi
        if lo < hi:
            for waddr in [waddr for waddr in image if lo <= waddr < hi]:
                self.write_logical(waddr, image.pop(waddr))
        if self._logical:
            self._logical.update(image)
        else:
            # Empty array (a freshly reset machine): the image is the map.
            self._logical = image

    @contextmanager
    def journaled_logical_writes(self):
        """Roll back every :meth:`write_logical` made inside the block.

        The crash-point sweep probes recovery against the *live* array
        mid-run; recovery only mutates logical values, so journaling the
        first-touch old value of each written word (and dropping slots
        recovery created from pristine) restores the array exactly.
        Cheaper than :meth:`snapshot`, which copies every slot.
        """
        if self._journal is not None:
            raise RuntimeError("logical-write journal cannot nest")
        self._journal = {}
        try:
            yield self
        finally:
            journal, self._journal = self._journal, None
            logical, cells = self._logical, self._cells
            lo, hi = self._paged_lo, self._paged_hi
            for waddr, old in journal.items():
                if lo <= waddr < hi:
                    page = self._pages[waddr >> _PAGE_SHIFT]
                    i = waddr >> 3 & _SLOT_MASK
                    if old is not None:
                        page.logical[i] = old
                    else:
                        page.drop(i)
                    continue
                if old is not None:
                    logical[waddr] = old
                    continue
                # A dropped slot loses its cells and encoding, not its wear.
                logical.pop(waddr, None)
                self._encoded.pop(waddr, None)
                if waddr in cells:
                    cells[waddr] = cells[waddr] >> _WEAR_SHIFT << _WEAR_SHIFT

    def _paged_slots(self) -> Iterator[Tuple[int, _Page, int]]:
        """``(address, page, index)`` of every paged slot, in address order."""
        for base, page in self._page_items():
            present = page.present
            i = present.find(1)
            while i >= 0:
                yield base + i * WORD_BYTES, page, i
                i = present.find(1, i + 1)

    def written_addresses(self, lo: int, hi: int) -> list:
        """Sorted word addresses with a slot allocated in ``[lo, hi)``.

        Design-private recovery (InCLL embedded slots, CoW page tables)
        heap-scans its durable region through this accessor; the array
        is sparse, so only slots that were ever written enumerate.
        """
        found = [addr for addr in self._logical if lo <= addr < hi]
        if lo < self._paged_hi and self._paged_lo < hi:
            found.extend(
                addr for addr, _page, _i in self._paged_slots() if lo <= addr < hi
            )
        return sorted(found)

    def snapshot(self) -> Dict[int, StoredWord]:
        """Copy the persistent state for crash-injection tests.

        Slots outside the paged window come first, in creation order,
        then the paged window's in address order.
        """
        snap = {
            addr: self._view(addr, logical) for addr, logical in self._logical.items()
        }
        for addr, page, i in self._paged_slots():
            snap[addr] = self._page_view(page, i)
        return snap

    def restore(self, snapshot: Dict[int, StoredWord]) -> None:
        """Roll the slots back to ``snapshot``; every address keeps its wear."""
        lo, hi = self._paged_lo, self._paged_hi
        for _base, page in self._page_items():
            for i in range(PAGE_WORDS):
                page.drop(i)
        flat = {}
        for addr, s in snapshot.items():
            if lo <= addr < hi:
                page = self._page(addr)
                i = addr >> 3 & _SLOT_MASK
                page.present[i] = 1
                page.logical[i] = s.logical
                page.encoded[i] = s.encoded
                page.cells[i] |= s.data_cells | s.tag_cells << _TAG_SHIFT
            else:
                flat[addr] = s
        self._logical = {addr: s.logical for addr, s in flat.items()}
        self._encoded = {
            addr: s.encoded for addr, s in flat.items() if s.encoded is not None
        }
        cells = {
            addr: state >> _WEAR_SHIFT << _WEAR_SHIFT
            for addr, state in self._cells.items()
        }
        for addr, s in flat.items():
            packed = s.data_cells | s.tag_cells << _TAG_SHIFT
            if packed:
                cells[addr] = cells.get(addr, 0) | packed
        self._cells = cells

    def __len__(self) -> int:
        return len(self._logical) + sum(
            page.present.count(1) for page in self._pages.values()
        )
