"""The slot store of :class:`repro.nvm.array.NvmArray`.

The array keeps its word slots in 4 KB pages, each a set of parallel
arrays: logical values, packed cell state (data cells, tag cells and
wear in one int), the last encoding per slot, and which slots exist.
:class:`~repro.nvm.array.StoredWord` is only the view that
``read_word`` and each read of a ``snapshot`` build.  The reference
below is an earlier layout, one mutable ``StoredWord`` per slot plus a
separate wear dict, kept only here.  Every comparison is ``==``, floats included.
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
PAGE_BYTES = PAGE_WORDS * WORD_BYTES
# Four lines of word slots, so operations keep landing on earlier slots.
# They straddle the boundary of pages 0 and 1.  Two lines on page 3 leave
# page 2 without a slot, a gap that address scans must step over.
BASE = PAGE_BYTES - 2 * 64
SPAN = 4 * 64
FAR = 3 * PAGE_BYTES
FAR_SPAN = 2 * 64
# Every slot a request can reach (one starting on the last word writes
# up to seven more).
ADDRS = [
    *range(BASE, BASE + SPAN + 8 * WORD_BYTES, WORD_BYTES),
    *range(FAR, FAR + FAR_SPAN + 8 * WORD_BYTES, WORD_BYTES),
]


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


addrs = st.one_of(
    st.integers(BASE, BASE + SPAN - 1),
    st.integers(BASE, BASE + SPAN - 1),
    st.integers(FAR, FAR + FAR_SPAN - 1),
)
values = st.integers(0, (1 << 66) - 1)  # wider than a word: masked on store
# ``written_addresses`` bounds: page boundaries (page 2 is the gap) and
# any byte around the slots, so ranges may be empty, end on a page
# boundary, cut into a line or cover only the gap.
bounds = st.one_of(
    st.sampled_from([n * PAGE_BYTES for n in range(5)]),
    st.integers(BASE - 16, FAR + FAR_SPAN + 80),
)
scans = st.lists(st.tuples(bounds, bounds), min_size=1, max_size=4)
# Checked in every example besides the drawn ones.
EDGE_SCANS = [
    (PAGE_BYTES, PAGE_BYTES),            # empty
    (FAR, PAGE_BYTES),                   # reversed, so empty
    (BASE, PAGE_BYTES),                  # hi on a page boundary
    (PAGE_BYTES - 7, 2 * PAGE_BYTES),    # lo inside a word
    (2 * PAGE_BYTES, FAR),               # only the gap page
    (PAGE_BYTES + 8, FAR + 9),           # across the gap
    (0, 1 << 64),                        # everything
]

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


def in_array_order(items) -> list:
    """The reference's (address, value) pairs in the array's order, which
    is address order."""
    return sorted(items, key=lambda item: item[0])


def assert_same(array: NvmArray, reference: ReferenceArray, ranges) -> None:
    for addr in ADDRS:
        assert array.read_word(addr + 5) == reference.read_word(addr), hex(addr)
        assert array.read_logical(addr + 3) == reference.read_logical(addr + 3)
    assert list(array.snapshot().items()) == in_array_order(
        reference.snapshot().items())
    for lo, hi in ranges:
        assert array.written_addresses(lo, hi) == (
            reference.written_addresses(lo, hi)), (hex(lo), hex(hi))
    assert len(array) == len(reference)
    assert list(array.wear.items()) == in_array_order(reference.wear.items())
    assert array.stats.as_dict() == reference.stats.as_dict()


# ---------------------------------------------------------------------------
# Differential test
# ---------------------------------------------------------------------------

def run_against_reference(stream, ranges) -> None:
    """Drive an array and the reference with the same operations,
    comparing them (``written_addresses`` over each of ``ranges``) after
    each one."""
    array = NvmArray(CONFIG, StatGroup("array"))
    reference = ReferenceArray(CONFIG)
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
            assert list(mine.items()) == in_array_order(theirs.items())
            # Detached: changing the copy leaves the array as it was.
            for slot in mine.values():
                slot.logical ^= 1
        else:
            assert apply(array, op) == apply(reference, op)
        assert_same(array, reference, ranges)


class TestAgainstSlotObjects:
    @settings(max_examples=300, deadline=None)
    @given(stream=st.lists(ops, min_size=1, max_size=14), ranges=scans)
    def test_random_operations_match_reference(self, stream, ranges):
        run_against_reference(stream, ranges + EDGE_SCANS)


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
        # A page adds four tracked objects (itself, its value array, its
        # cell and encoding lists); filling its other 511 slots adds none.
        encoded = EncodedWord("raw", 0x5A5A, 64, 0, ExpansionPolicy.RAW)
        array = NvmArray(CONFIG)
        pages = 20

        def first_slots():
            for n in range(pages):
                array.write_word(n * PAGE_BYTES, encoded, n)

        def other_slots():
            for addr in range(0, pages * PAGE_BYTES, WORD_BYTES):
                if addr % PAGE_BYTES:
                    array.write_word(addr, encoded, addr)

        assert 4 * pages <= _tracked_growth(first_slots) < 4 * pages + 10
        assert _tracked_growth(other_slots) < 10
        assert len(array) == pages * PAGE_WORDS

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


# ---------------------------------------------------------------------------
# Pages
# ---------------------------------------------------------------------------

RAW = EncodedWord("raw", 0x5A5A, 64, 0, ExpansionPolicy.RAW)
PRISTINE = StoredWord(0, 0, 0, None)


class _CountingPages(dict):
    """A page map that records each page fetched by its number."""

    def __init__(self, pages) -> None:
        super().__init__(pages)
        self.fetched = []

    def __getitem__(self, number):
        self.fetched.append(number)
        return super().__getitem__(number)


class TestPages:
    def test_snapshot_is_in_address_order(self):
        array = NvmArray(CONFIG)
        # Pages and slots created from the top down, programmed or not.
        addrs = [5 * PAGE_BYTES + 8, 5 * PAGE_BYTES, 2 * PAGE_BYTES + 64,
                 PAGE_BYTES - 8, 0]
        for n, addr in enumerate(addrs):
            if n % 2:
                array.write_logical(addr, n)
            else:
                array.write_word(addr, RAW, n)
        snapshot = array.snapshot()
        assert list(snapshot) == sorted(addrs)
        assert [snapshot[addr].logical for addr in addrs] == list(range(5))

    def test_snapshot_reads_as_a_mapping(self):
        array = NvmArray(CONFIG)
        addrs = [16, PAGE_BYTES + 8, PAGE_BYTES + 16]
        array.write_word(addrs[1], RAW, 1)
        array.write_logical(addrs[2], 3)
        array.write_logical(addrs[0], 2)
        views = [array.read_word(addr) for addr in addrs]
        snapshot = array.snapshot()
        assert dict(snapshot) == dict(snapshot.items()) == dict(zip(addrs, views))
        assert snapshot == dict(zip(reversed(addrs), reversed(views)))
        assert list(snapshot.values()) == views
        assert len(snapshot) == len(array) == 3
        # Absent: a free slot on a page with slots, a page with none, an
        # address inside a word.
        for addr in (24, 3 * PAGE_BYTES, 17):
            assert addr not in snapshot
            assert snapshot.get(addr) is None
        # Each read builds a fresh view.
        assert snapshot[16] == views[0] and snapshot[16] is not snapshot[16]

    def test_snapshot_builds_no_view_until_read(self):
        # A snapshot copies each page's arrays: four tracked objects a
        # page, none a slot; reading every slot's value keeps none.
        array = NvmArray(CONFIG)
        pages = 20
        for addr in range(0, pages * PAGE_BYTES, WORD_BYTES):
            array.write_word(addr, RAW, addr)
        kept = []
        assert 4 * pages <= _tracked_growth(lambda: kept.append(array.snapshot())) < 4 * pages + 10
        values = {}
        assert _tracked_growth(
            lambda: values.update((addr, slot.logical) for addr, slot in kept[0].items())) < 10
        assert values == {addr: addr for addr in range(0, pages * PAGE_BYTES, WORD_BYTES)}

    def test_wear_is_in_address_order(self):
        array = NvmArray(CONFIG)
        costs = {
            addr: array.write_word(addr, RAW, 0x5A5A).cells_programmed
            for addr in (3 * PAGE_BYTES + 16, PAGE_BYTES, 3 * PAGE_BYTES, 8)
        }
        # A slot that programmed no cell has no wear entry.
        array.write_logical(2 * PAGE_BYTES, 1)
        assert all(costs.values())
        assert list(array.wear.items()) == sorted(costs.items())

    def test_request_spans_a_page_boundary(self):
        array = NvmArray(CONFIG)
        start = PAGE_BYTES - 3 * WORD_BYTES
        addrs = [start + i * WORD_BYTES for i in range(8)]
        cost = array.write_words(start + 5, [RAW] * 8, list(range(1, 9)))
        assert [array.read_logical(addr) for addr in addrs] == list(range(1, 9))
        assert array.written_addresses(0, PAGE_BYTES) == addrs[:3]
        assert array.written_addresses(PAGE_BYTES, 2 * PAGE_BYTES) == addrs[3:]
        assert len(array) == 8
        assert sum(array.wear.values()) == cost.cells_programmed

    def test_bulk_writes_alternating_pages(self):
        addrs = [0, FAR, 8, FAR + 8, 0, FAR + 3]
        values = [1, 2, 3, 4, 5, 6]
        bulk, looped = NvmArray(CONFIG), NvmArray(CONFIG)
        bulk.bulk_write_logical(addrs, values)
        for addr, value in zip(addrs, values):
            looped.write_logical(addr, value)
        assert bulk.snapshot() == looped.snapshot()
        assert bulk.written_addresses(0, 1 << 64) == [0, 8, FAR, FAR + 8]
        assert [bulk.read_logical(a) for a in (0, 8, FAR, FAR + 8)] == [5, 3, 6, 4]

    def test_reads_create_no_page(self):
        array = NvmArray(CONFIG)
        array.write_word(PAGE_BYTES, RAW, 1)
        for addr in (0, 2 * PAGE_BYTES, 7 * PAGE_BYTES + 24):
            assert array.read_word(addr) == PRISTINE
            assert array.read_logical(addr) == 0
        assert array.written_addresses(0, 8 * PAGE_BYTES) == [PAGE_BYTES]
        assert list(array.snapshot()) == [PAGE_BYTES]
        assert list(array.wear) == [PAGE_BYTES]
        assert len(array) == 1
        assert list(array._pages) == [1]

    def test_written_addresses_fetches_only_overlapping_pages(self):
        array = NvmArray(CONFIG)
        for n in range(0, 40, 2):
            array.write_logical(n * PAGE_BYTES + 8, n)
        array._pages = pages = _CountingPages(array._pages)
        assert array.written_addresses(6 * PAGE_BYTES, 11 * PAGE_BYTES) == [
            6 * PAGE_BYTES + 8, 8 * PAGE_BYTES + 8, 10 * PAGE_BYTES + 8]
        assert sorted(pages.fetched) == [6, 8, 10]
        # ``hi`` on a page boundary: the page starting there is not walked.
        pages.fetched.clear()
        assert array.written_addresses(6 * PAGE_BYTES, 10 * PAGE_BYTES) == [
            6 * PAGE_BYTES + 8, 8 * PAGE_BYTES + 8]
        assert sorted(pages.fetched) == [6, 8]
        # A range over a page that holds no slot walks nothing.
        pages.fetched.clear()
        assert array.written_addresses(7 * PAGE_BYTES, 8 * PAGE_BYTES) == []
        assert pages.fetched == []

    def test_journal_cannot_nest(self):
        array = NvmArray(CONFIG)
        array.write_logical(0, 1)
        with array.journaled_logical_writes():
            array.write_logical(0, 2)
            with pytest.raises(RuntimeError):
                with array.journaled_logical_writes():
                    pass
            # The open journal survives the refused one.
            array.write_logical(0, 3)
        assert array.read_logical(0) == 1
        with array.journaled_logical_writes():
            array.write_logical(0, 4)
        assert array.read_logical(0) == 1

    def test_rollback_restores_values_and_drops_new_slots(self):
        array = NvmArray(CONFIG)
        programmed = PAGE_BYTES + 8
        array.write_word(programmed, RAW, 7)
        array.write_logical(PAGE_BYTES + 64, 8)
        before = array.snapshot()
        with array.journaled_logical_writes():
            array.write_logical(programmed, 70)
            array.write_logical(programmed, 71)
            # A new slot on a page with slots, then one on a new page.
            array.write_logical(PAGE_BYTES + 16, 9)
            array.bulk_write_logical([PAGE_BYTES + 64, 5 * PAGE_BYTES], [80, 10])
            assert len(array) == 4
        assert array.snapshot() == before
        assert len(array) == 2
        assert array.written_addresses(0, 1 << 64) == [programmed, PAGE_BYTES + 64]
        assert array.read_word(5 * PAGE_BYTES) == PRISTINE

    def test_rollback_keeps_the_wear_of_a_dropped_slot(self):
        array = NvmArray(CONFIG)
        addr = 2 * PAGE_BYTES
        with array.journaled_logical_writes():
            array.write_logical(addr, 1)
            cells = array.write_word(addr, RAW, 0x5A5A).cells_programmed
        assert cells > 0
        assert array.read_word(addr) == PRISTINE
        assert array.written_addresses(0, 1 << 64) == []
        assert len(array) == 0
        assert array.wear == {addr: cells}
        # Its cells are back at level 0: the next write costs what a
        # first write does, and adds to the wear.
        assert array.write_word(addr, RAW, 0x5A5A) == (
            NvmArray(CONFIG).write_word(addr, RAW, 0x5A5A))
        assert array.wear == {addr: 2 * cells}
