"""The NVMM array: encoded word storage with per-write cost accounting.

Each 64-bit word slot owns 22 TLC data cells plus a small group of *tag
cells* holding the sideband metadata (encoding type flag, expansion policy,
DLDC dirty flag).  A write encodes the word (done by the module controller),
maps the payload onto cell levels, and programs data and tag cells under
DCW; cells beyond the encoded payload keep their old levels — that is where
expansion coding and DLDC save writes.

Slots live in 4 KB pages keyed by page number (``address >> 12``); a
page is created with its first slot.  Each page keeps its 512 slots as
parallel arrays, with no per-slot key or object: the *logical* values
in a 64-bit ``array`` (so recovery and tests can check
decode(read(addr)) against ground truth), the packed cell state and the
last encoding in two lists, and which slots exist in a ``bytearray``.
A slot's cell state is one int: the data cells at bits 0-65, packed 3
bits per cell with cell *i* at bits 3i..3i+2 as
:func:`~repro.encoding.expansion.pack_payload` lays them out, the tag
cells at bits 66-86 as the 21-bit tag value itself, and the slot's
cumulative programmed-cell count (wear) from bit 87; 0 while the slot
has never programmed a cell.  :class:`StoredWord` is only the detached
view that :meth:`NvmArray.read_word` builds, and a :class:`Snapshot`
builds on each read of the page copies it holds.
"""

from array import array
from collections.abc import ItemsView, Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.bitops import WORD_BYTES, WORD_MASK, WORDS_PER_LINE
from repro.common.config import NVMConfig
from repro.common.frozen import slot_init
from repro.common.stats import StatGroup
from repro.encoding.base import EncodedWord
from repro.encoding.expansion import CELLS_PER_WORD, ExpansionPolicy, pack_payload
from repro.nvm.cell import cost_tables, dcw_cost, pristine_cost_table

# Sideband metadata per word: 3-bit encoding type flag, 2-bit expansion
# policy, 8-bit dirty flag, plus up to 8 codec tag-payload bits (FPC
# prefix, flip bit, ...) => 21 bits => 7 tag cells at 3 bits per cell.
TAG_BITS = 21
TAG_CELLS = (TAG_BITS + 2) // 3

_METHOD_IDS = {"raw": 0, "fpc": 1, "crade": 2, "dldc": 3, "flip-n-write": 4, "slde": 5}
# Keyed by ``policy._value_``: hashing an enum member runs Python code.
_POLICY_IDS = {
    ExpansionPolicy.RAW._value_: 0,
    ExpansionPolicy.EXPAND2._value_: 1,
    ExpansionPolicy.EXPAND1._value_: 2,
}
_ALIGN = ~(WORD_BYTES - 1)

# Bit layout of a slot's packed cell state: data cells, then tag cells,
# then wear.
_TAG_SHIFT = 3 * CELLS_PER_WORD
_WEAR_SHIFT = _TAG_SHIFT + 3 * TAG_CELLS
_DATA_MASK = (1 << _TAG_SHIFT) - 1
_TAG_MASK = (1 << 3 * TAG_CELLS) - 1

#: Word slots per page (a 4 KB page).
PAGE_WORDS = 512
_PAGE_SHIFT = 12
_SLOT_MASK = PAGE_WORDS - 1
_ZERO_LINE = (0,) * WORDS_PER_LINE


@dataclass(slots=True)
class StoredWord:
    """View of one word slot's state (cells packed 3 bits per cell).

    Built fresh by each read: assigning to it leaves the array as it was.
    """

    logical: int
    data_cells: int
    tag_cells: int
    encoded: Optional[EncodedWord]


@slot_init()
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
    """The slots of one 4 KB page, as parallel arrays."""

    __slots__ = ("logical", "cells", "encoded", "present")

    def __init__(self) -> None:
        self.logical = array("Q", bytes(8 * PAGE_WORDS))
        # Packed cell state; 0 while the slot has programmed no cell.
        self.cells: List[int] = [0] * PAGE_WORDS
        self.encoded: List[Optional[EncodedWord]] = [None] * PAGE_WORDS
        # 1 where the slot exists.
        self.present = bytearray(PAGE_WORDS)

    def copy(self) -> "_Page":
        page = _Page.__new__(_Page)
        page.logical = self.logical[:]
        page.cells = self.cells[:]
        page.encoded = self.encoded[:]
        page.present = self.present[:]
        return page


def _view(page: _Page, i: int) -> StoredWord:
    state = page.cells[i]
    return StoredWord(
        page.logical[i],
        state & _DATA_MASK,
        (state >> _TAG_SHIFT) & _TAG_MASK,
        page.encoded[i],
    )


def _slots(pages: Dict[int, _Page], lo: int, hi: int) -> Iterator[Tuple[int, _Page, int]]:
    """``(address, page, index)`` of every slot of ``pages`` in
    ``[lo, hi)``, in address order.  Walks only the pages that overlap
    the range."""
    first, last = lo >> _PAGE_SHIFT, (hi - 1) >> _PAGE_SHIFT
    for number in sorted(n for n in pages if first <= n <= last):
        base = number << _PAGE_SHIFT
        page = pages[number]
        # Slot i lies in the range iff lo <= base + 8i < hi.
        start = max((lo - base + 7) >> 3, 0)
        end = min((hi - base + 7) >> 3, PAGE_WORDS)
        for i in compress(range(start, end), page.present[start:end]):
            yield base + i * WORD_BYTES, page, i


class Snapshot(Mapping):
    """Every slot's state as :meth:`NvmArray.snapshot` copied it, by
    address, iterating in address order.

    It holds a copy of each page's arrays and builds a fresh
    :class:`StoredWord` view on each read, so a reader that keeps no
    view (recovery checks read one field of every slot) holds none.
    """

    __slots__ = ("_pages",)

    def __init__(self, pages: Dict[int, _Page]) -> None:
        self._pages = {number: page.copy() for number, page in pages.items()}

    def __getitem__(self, addr: int) -> StoredWord:
        page = self._pages.get(addr >> _PAGE_SHIFT)
        i = addr >> 3 & _SLOT_MASK
        if page is None or addr & (WORD_BYTES - 1) or not page.present[i]:
            raise KeyError(addr)
        return _view(page, i)

    def __iter__(self) -> Iterator[int]:
        return (addr for addr, _page, _i in _slots(self._pages, 0, 1 << 64))

    def __len__(self) -> int:
        return sum(page.present.count(1) for page in self._pages.values())

    def items(self) -> ItemsView:
        return _SnapshotItems(self)

    def __repr__(self) -> str:
        return "Snapshot(%r)" % dict(self.items())


class _SnapshotItems(ItemsView):
    """A snapshot's items, each view built straight from its page."""

    __slots__ = ()

    def __iter__(self) -> Iterator[Tuple[int, StoredWord]]:
        for addr, page, i in _slots(self._mapping._pages, 0, 1 << 64):
            yield addr, _view(page, i)


class NvmArray:
    """Sparse word-granularity NVMM array."""

    def __init__(self, config: NVMConfig, stats: Optional[StatGroup] = None) -> None:
        self._config = config
        self._pages: Dict[int, _Page] = {}
        self.stats = stats if stats is not None else StatGroup("nvm_array")
        # Active logical-write journal (crash-injection recovery probes).
        self._journal: Optional[Dict[int, Optional[int]]] = None
        self._cost_tables = cost_tables(config)
        self._pristine = pristine_cost_table(config)

    @property
    def wear(self) -> Dict[int, int]:
        """Per-word cumulative programmed-cell counts (endurance, §VI-C),
        in address order."""
        wear = {}
        for number in sorted(self._pages):
            base = number << _PAGE_SHIFT
            for i, state in enumerate(self._pages[number].cells):
                if state:
                    wear[base + i * WORD_BYTES] = state >> _WEAR_SHIFT
        return wear

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
        wear) skips the old-cell lookup.  Its cost comes from
        :func:`~repro.nvm.cell.pristine_cost_table`, three cells per
        lookup, adding each cell's energy, or an exact ``0.0`` for a cell
        left at level 0, in ascending cell order: the same sum
        :func:`~repro.nvm.cell.dcw_cost` makes.
        """
        pages = self._pages
        stats = self.stats
        latency_table, energy_table = self._cost_tables
        pristine = self._pristine
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
            if waddr >> _PAGE_SHIFT != page_number:
                page_number = waddr >> _PAGE_SHIFT
                page = pages.get(page_number)
                if page is None:
                    page = pages[page_number] = _Page()
                page_logical = page.logical
                page_cells = page.cells
                page_encoded = page.encoded
                page_present = page.present
            i = waddr >> 3 & _SLOT_MASK
            state = page_cells[i]
            if enc.payload_bits:
                new, n_cells = pack_payload(enc.payload, enc.payload_bits, enc.policy)
            else:
                # No payload: no data cells, an image of 0.
                new = n_cells = 0
            if state:
                # Programmed before: DCW against the old cells.
                old = state & _DATA_MASK
                if n_cells < CELLS_PER_WORD:
                    keep = 3 * n_cells
                    new |= old >> keep << keep
                if new != old:
                    cells, word_latency, word_energy = dcw_cost(
                        old, new, latency_table, energy_table
                    )
                    state ^= old ^ new
                else:
                    cells, word_latency, word_energy = 0, 0.0, 0.0
                if enc.tag_bits > 0 or enc.method != "raw":
                    old = (state >> _TAG_SHIFT) & _TAG_MASK
                    new = _tag_value(enc)
                    if new != old:
                        tag_cells, tag_latency, tag_energy = dcw_cost(
                            old, new, latency_table, energy_table
                        )
                        cells += tag_cells
                        if tag_latency > word_latency:
                            word_latency = tag_latency
                        word_energy += tag_energy
                        state ^= (old ^ new) << _TAG_SHIFT
            else:
                # Never programmed: old cells and tags all at level 0.
                # Walk the image three cells per table lookup (inlined,
                # for data and then tags).
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
            page_logical[i] = logical & WORD_MASK
            page_encoded[i] = enc
            page_present[i] = 1
            if cells:
                page_cells[i] = state + (cells << _WEAR_SHIFT)
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

    def read_word(self, addr: int) -> StoredWord:
        """Return a view of a word slot's state (pristine if unwritten)."""
        page = self._pages.get(addr >> _PAGE_SHIFT)
        if page is None:
            return StoredWord(0, 0, 0, None)
        return _view(page, addr >> 3 & _SLOT_MASK)

    def read_logical(self, addr: int) -> int:
        page = self._pages.get(addr >> _PAGE_SHIFT)
        return 0 if page is None else page.logical[addr >> 3 & _SLOT_MASK]

    def read_line(self, addr: int) -> Tuple[int, ...]:
        """The eight logical words of the line at ``addr`` (line-aligned),
        as eight :meth:`read_logical` calls would read them."""
        page = self._pages.get(addr >> _PAGE_SHIFT)
        if page is None:
            return _ZERO_LINE
        i = addr >> 3 & _SLOT_MASK
        return tuple(page.logical[i:i + WORDS_PER_LINE])

    def write_logical(self, addr: int, value: int) -> None:
        """Set a slot's logical value without cost accounting.

        Used by the recovery routine, which copies log data to home
        locations outside the measured execution window.
        """
        page = self._pages.get(addr >> _PAGE_SHIFT)
        if page is None:
            page = self._pages[addr >> _PAGE_SHIFT] = _Page()
        i = addr >> 3 & _SLOT_MASK
        journal = self._journal
        if journal is not None:
            waddr = addr & _ALIGN
            if waddr not in journal:
                journal[waddr] = page.logical[i] if page.present[i] else None
        page.logical[i] = value & WORD_MASK
        page.present[i] = 1

    def bulk_write_logical(self, addrs, values) -> None:
        """Install many logical words at once (trace-replay setup path).

        Semantically ``write_logical`` in a loop, with the per-call
        page lookup and journal check hoisted out; replaying a recorded
        setup image is pure data movement, so this is the hot path of
        :func:`repro.replay.replayer.apply_trace_setup`.
        """
        if self._journal is not None:
            for addr, value in zip(addrs, values):
                self.write_logical(addr, value)
            return
        pages = self._pages
        page_number = -1
        for addr, value in zip(addrs, values):
            if addr >> _PAGE_SHIFT != page_number:
                page_number = addr >> _PAGE_SHIFT
                page = pages.get(page_number)
                if page is None:
                    page = pages[page_number] = _Page()
                page_logical = page.logical
                page_present = page.present
            i = addr >> 3 & _SLOT_MASK
            page_logical[i] = value & WORD_MASK
            page_present[i] = 1

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
            pages = self._pages
            for waddr, old in journal.items():
                page = pages[waddr >> _PAGE_SHIFT]
                i = waddr >> 3 & _SLOT_MASK
                if old is not None:
                    page.logical[i] = old
                    continue
                # A dropped slot loses its value, cells and encoding, not
                # its wear.
                page.present[i] = 0
                page.logical[i] = 0
                page.encoded[i] = None
                page.cells[i] = page.cells[i] >> _WEAR_SHIFT << _WEAR_SHIFT

    def written_addresses(self, lo: int, hi: int) -> list:
        """Sorted word addresses with a slot allocated in ``[lo, hi)``.

        Design-private recovery (InCLL embedded slots, CoW page tables)
        heap-scans its durable region through this accessor; the array
        is sparse, so only slots that were ever written enumerate.
        """
        return [addr for addr, _page, _i in _slots(self._pages, lo, hi)]

    def snapshot(self) -> Snapshot:
        """Copy every slot's state: a :class:`Snapshot`, in address order."""
        return Snapshot(self._pages)

    def __len__(self) -> int:
        return sum(page.present.count(1) for page in self._pages.values())
