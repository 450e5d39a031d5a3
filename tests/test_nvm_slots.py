"""The slot store of :class:`repro.nvm.array.NvmArray`.

The array keeps its word slots in maps keyed by word address: logical
values and packed cell state (data cells, tag cells and wear in one int)
in two maps of ints, and the last encoding per slot in a third.  Slots in
a paged window (``store_by_page``, the log region's) live in per-page
arrays instead.  :class:`~repro.nvm.array.StoredWord` is only the view
that ``read_word`` and ``snapshot`` build.  The reference below is the
earlier layout, one mutable ``StoredWord`` per slot plus a separate wear
dict, kept only here.  Every comparison is ``==``, floats included.
"""

import gc
from typing import Dict, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.bitops import WORD_BYTES, WORD_MASK
from repro.common.config import NVMConfig
from repro.common.stats import StatGroup
from repro.encoding.base import EncodedWord
from repro.encoding.expansion import CELLS_PER_WORD, ExpansionPolicy, pack_payload
from repro.nvm.array import PAGE_WORDS, NvmArray, StoredWord, WriteCost, _tag_value
from repro.nvm.cell import cost_tables, dcw_cost

CONFIG = NVMConfig()
ALIGN = ~(WORD_BYTES - 1)
# Four lines of word slots, so operations keep landing on earlier slots.
# They straddle a page boundary, and the paged window covers the middle
# two lines, so operations land on both sides of the window and on two
# pages inside it.
BASE = PAGE_WORDS * WORD_BYTES - 2 * 64
SPAN = 4 * 64
ADDRS = range(BASE, BASE + SPAN + 8 * WORD_BYTES, WORD_BYTES)
WINDOW = (BASE + 64, BASE + 3 * 64)


# ---------------------------------------------------------------------------
# Reference: one StoredWord object per slot, wear in its own dict
# ---------------------------------------------------------------------------

class ReferenceArray:
    """The slot-object layout, with the same accounting as the array."""

    def __init__(self, config: NVMConfig) -> None:
        self.words: Dict[int, StoredWord] = {}
        self.wear: Dict[int, int] = {}
        self.stats = StatGroup("reference")
        self.journal: Optional[Dict[int, Optional[int]]] = None
        self.tables = cost_tables(config)

    def write_words(self, addr, encoded, logicals) -> WriteCost:
        waddr = (addr & ALIGN) - WORD_BYTES
        cells_total, bits_total, latency, energy = 0, 0, 0.0, 0.0
        written = silent = 0
        counter = self.stats.get("energy_pj")
        for enc, logical in zip(encoded, logicals):
            waddr += WORD_BYTES
            if enc.silent:
                silent += 1
                continue
            written += 1
            slot = self.words.get(waddr)
            if slot is None:
                slot = self.words[waddr] = StoredWord(0, 0, 0, None)
            old = slot.data_cells
            new, n_cells = pack_payload(enc.payload, enc.payload_bits, enc.policy)
            if n_cells < CELLS_PER_WORD:
                new |= old >> (3 * n_cells) << (3 * n_cells)
            cells, word_latency, word_energy = dcw_cost(old, new, *self.tables)
            slot.data_cells = new
            if enc.tag_bits > 0 or enc.method != "raw":
                tag = _tag_value(enc)
                tag_cells, tag_latency, tag_energy = dcw_cost(
                    slot.tag_cells, tag, *self.tables)
                cells += tag_cells
                word_latency = max(word_latency, tag_latency)
                word_energy += tag_energy
                slot.tag_cells = tag
            slot.logical = logical & WORD_MASK
            slot.encoded = enc
            if cells:
                self.wear[waddr] = self.wear.get(waddr, 0) + cells
                cells_total += cells
                latency = max(latency, word_latency)
                energy += word_energy
                counter += word_energy
            bits_total += enc.payload_bits + enc.tag_bits
        if written:
            self.stats.add("word_writes", written)
            self.stats.add("cells_programmed", cells_total)
            self.stats.add("bits_written", bits_total)
            self.stats.set("energy_pj", counter)
        if silent:
            self.stats.add("silent_word_writes", silent)
        return WriteCost(cells_total, bits_total, latency, energy, cells_total == 0)

    def read_word(self, addr) -> StoredWord:
        slot = self.words.get(addr & ALIGN)
        return slot if slot is not None else StoredWord(0, 0, 0, None)

    def read_logical(self, addr) -> int:
        return self.read_word(addr).logical

    def write_logical(self, addr, value) -> None:
        waddr = addr & ALIGN
        if self.journal is not None and waddr not in self.journal:
            slot = self.words.get(waddr)
            self.journal[waddr] = None if slot is None else slot.logical
        self.words.setdefault(waddr, StoredWord(0, 0, 0, None)).logical = (
            value & WORD_MASK)

    def bulk_write_logical(self, addrs, values) -> None:
        for addr, value in zip(addrs, values):
            self.write_logical(addr, value)

    def open_journal(self) -> None:
        self.journal = {}

    def close_journal(self) -> None:
        journal, self.journal = self.journal, None
        for waddr, old in journal.items():
            if old is None:
                self.words.pop(waddr, None)
            else:
                self.words[waddr].logical = old

    def written_addresses(self, lo, hi) -> list:
        return sorted(addr for addr in self.words if lo <= addr < hi)

    def snapshot(self) -> Dict[int, StoredWord]:
        return {
            addr: StoredWord(s.logical, s.data_cells, s.tag_cells, s.encoded)
            for addr, s in self.words.items()
        }

    def restore(self, snapshot) -> None:
        self.words = {
            addr: StoredWord(s.logical, s.data_cells, s.tag_cells, s.encoded)
            for addr, s in snapshot.items()
        }

    def __len__(self) -> int:
        return len(self.words)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def encodings(draw):
    """Small value domains, so rewrites repeat payloads and tags: silent
    words, unchanged words, tag-only changes and partial payloads."""
    policy = draw(st.sampled_from(list(ExpansionPolicy)))
    full = CELLS_PER_WORD * policy.bits_per_cell
    bits = draw(st.sampled_from((0, 1, 7, 12, full)))
    payload = draw(st.sampled_from((0, 1, (1 << bits) - 1)) if bits else st.just(0))
    method = draw(st.sampled_from(("raw", "crade", "dldc", "slde")))
    return EncodedWord(
        method=method,
        payload=payload,
        payload_bits=bits,
        tag_bits=0 if method == "raw" else draw(st.sampled_from((0, 5, 13))),
        policy=policy,
        tag_payload=draw(st.sampled_from((0, 0x2A))),
        dirty_mask=draw(st.sampled_from((None, 0x0F, 0xFF))),
        silent=draw(st.integers(0, 4)) == 0,
    )


addrs = st.integers(BASE, BASE + SPAN - 1)
values = st.integers(0, (1 << 66) - 1)  # wider than a word: masked on store

words_op = st.tuples(
    st.just("words"),
    addrs,
    st.lists(st.tuples(encodings(), values), min_size=1, max_size=8),
)
logical_op = st.tuples(st.just("logical"), addrs, values)
bulk_op = st.tuples(
    st.just("bulk"), st.lists(st.tuples(addrs, values), max_size=12))
plain_ops = st.one_of(words_op, words_op, logical_op, bulk_op)
ops = st.one_of(
    plain_ops,
    plain_ops,
    st.tuples(st.just("journal"), st.lists(plain_ops, max_size=6)),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore"), st.integers(0, 3)),
)


def apply(target, op):
    """Run one plain operation; returns the write's cost, if any."""
    kind = op[0]
    if kind == "words":
        _kind, addr, items = op
        return target.write_words(
            addr, [enc for enc, _ in items], [value for _, value in items])
    if kind == "logical":
        target.write_logical(op[1], op[2])
    else:
        target.bulk_write_logical([a for a, _ in op[1]], [v for _, v in op[1]])
    return None


def in_array_order(items, window) -> list:
    """The reference's (address, value) pairs in the array's order: slots
    outside the paged window in creation order, then the window's by
    address."""
    items = list(items)
    if window is None:
        return items
    lo, hi = window
    return [item for item in items if not lo <= item[0] < hi] + sorted(
        (item for item in items if lo <= item[0] < hi), key=lambda item: item[0])


def assert_same(array: NvmArray, reference: ReferenceArray, window) -> None:
    for addr in ADDRS:
        assert array.read_word(addr + 5) == reference.read_word(addr), hex(addr)
        assert array.read_logical(addr + 3) == reference.read_logical(addr + 3)
    assert list(array.snapshot().items()) == in_array_order(
        reference.snapshot().items(), window)
    # Bounds cut into the lines on both sides of the window.
    lo, hi = BASE + 40, BASE + SPAN - 40
    assert array.written_addresses(lo, hi) == reference.written_addresses(lo, hi)
    assert len(array) == len(reference)
    assert list(array.wear.items()) == in_array_order(reference.wear.items(), window)
    assert array.stats.as_dict() == reference.stats.as_dict()


# ---------------------------------------------------------------------------
# Differential test
# ---------------------------------------------------------------------------

def run_against_reference(stream, window=None) -> None:
    """Drive an array (paged over ``window``, if given) and the reference
    with the same operations, comparing them after each one."""
    array = NvmArray(CONFIG, StatGroup("array"))
    if window is not None:
        array.store_by_page(*window)
    reference = ReferenceArray(CONFIG)
    snapshots = []
    for op in stream:
        kind = op[0]
        if kind == "journal":
            reference.open_journal()
            with array.journaled_logical_writes():
                for inner in op[1]:
                    assert apply(array, inner) == apply(reference, inner)
            reference.close_journal()
        elif kind == "snapshot":
            mine, theirs = array.snapshot(), reference.snapshot()
            assert list(mine.items()) == in_array_order(theirs.items(), window)
            snapshots.append((mine, theirs))
        elif kind == "restore":
            if snapshots:
                mine, theirs = snapshots[op[1] % len(snapshots)]
                array.restore(mine)
                reference.restore(theirs)
        else:
            assert apply(array, op) == apply(reference, op)
        assert_same(array, reference, window)


class TestAgainstSlotObjects:
    @settings(max_examples=300, deadline=None)
    @given(stream=st.lists(ops, min_size=1, max_size=14))
    def test_random_operations_match_reference(self, stream):
        run_against_reference(stream)

    @settings(max_examples=300, deadline=None)
    @given(stream=st.lists(ops, min_size=1, max_size=14))
    def test_paged_window_matches_reference(self, stream):
        run_against_reference(stream, WINDOW)

    def test_window_is_set_once_before_its_slots(self):
        array = NvmArray(CONFIG)
        array.write_logical(WINDOW[0], 1)
        with pytest.raises(ValueError):
            array.store_by_page(*WINDOW)
        array = NvmArray(CONFIG)
        array.store_by_page(*WINDOW)
        with pytest.raises(ValueError):
            array.store_by_page(WINDOW[1], WINDOW[1] + 64)


# ---------------------------------------------------------------------------
# Properties of the layout
# ---------------------------------------------------------------------------

def _tracked_growth(action) -> int:
    gc.collect()
    before = len(gc.get_objects())
    action()
    return len(gc.get_objects()) - before


class TestSlotStore:
    def test_fresh_slots_add_no_tracked_objects(self):
        encoded = EncodedWord("raw", 0x5A5A, 64, 0, ExpansionPolicy.RAW)
        array = NvmArray(CONFIG)
        batch = [encoded] * 8
        requests = [(64 * i, list(range(8 * i, 8 * i + 8))) for i in range(125)]

        def write_requests():
            for addr, logicals in requests:
                array.write_words(addr, batch, logicals)

        assert _tracked_growth(write_requests) < 50
        assert len(array) == 1000

        array = NvmArray(CONFIG)
        addrs = [WORD_BYTES * i for i in range(1000)]

        def write_logicals():
            for addr in addrs:
                array.write_logical(addr, addr)

        assert _tracked_growth(write_logicals) < 50
        assert len(array) == 1000

    def test_paged_slots_add_no_per_slot_objects(self):
        # 1,000 slots span two pages: a page adds a handful of tracked
        # objects (itself, its cell and encoding lists), a slot none.
        encoded = EncodedWord("raw", 0x5A5A, 64, 0, ExpansionPolicy.RAW)
        array = NvmArray(CONFIG)
        array.store_by_page(0, 1 << 20)
        batch = [encoded] * 8

        def write_requests():
            for i in range(125):
                array.write_words(64 * i, batch, list(range(8 * i, 8 * i + 8)))

        assert _tracked_growth(write_requests) < 50
        assert len(array) == 1000 and not array._logical
        array = NvmArray(CONFIG)
        array.store_by_page(0, 1 << 20)

        def write_logicals():
            for i in range(1000):
                array.write_logical(WORD_BYTES * i, i)

        assert _tracked_growth(write_logicals) < 50
        assert len(array) == 1000 and not array._logical

    def test_int_maps_stay_untracked(self):
        array = NvmArray(CONFIG)
        array.bulk_write_logical([0, 8, 16], [1, 2, 3])
        array.write_word(24, EncodedWord("crade", 3, 2, 5, ExpansionPolicy.EXPAND1), 4)
        array.write_logical(32, 5)
        assert not gc.is_tracked(array._logical)
        assert not gc.is_tracked(array._cells)

    def test_read_word_returns_a_detached_view(self):
        array = NvmArray(CONFIG)
        array.write_word(0x40, EncodedWord("raw", 7, 64, 0, ExpansionPolicy.RAW), 7)
        view = array.read_word(0x40)
        view.logical = 99
        view.data_cells = 0
        assert array.read_logical(0x40) == 7
        assert array.read_word(0x40).data_cells != 0
        snap = array.snapshot()
        snap[0x40].logical = 98
        assert array.read_logical(0x40) == 7
        pristine = array.read_word(0x80)
        pristine.logical = 5
        assert array.read_logical(0x80) == 0
        assert len(array) == 1

    def test_restore_keeps_wear(self):
        array = NvmArray(CONFIG)
        first = EncodedWord("raw", 0x1234, 64, 0, ExpansionPolicy.RAW)
        second = EncodedWord("crade", 0x3F, 6, 5, ExpansionPolicy.EXPAND2,
                             tag_payload=3)
        array.write_word(0, first, 0x1234)
        snap = array.snapshot()
        array.write_word(0, second, 0x3F)
        array.write_word(8, second, 0x3F)  # a slot the snapshot lacks
        wear = array.wear
        assert set(wear) == {0, 8}
        array.restore(snap)
        assert array.wear == wear
        assert array.read_word(0) == snap[0]
        assert array.read_word(8) == StoredWord(0, 0, 0, None)
        assert array.written_addresses(0, 64) == [0]
        # Cells restored, wear kept: rewriting the snapshot's content
        # programs nothing more.
        assert array.write_word(0, first, 0x1234).cells_programmed == 0
        assert array.wear == wear
