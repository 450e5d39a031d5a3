"""The packed-cell NVM write path is bit-exact against per-cell references.

:mod:`repro.nvm.array` stores a word slot's cells as packed ints (3 bits
per cell, cell *i* at bits 3i..3i+2), maps payloads with one table
lookup per chunk (:func:`repro.encoding.expansion.pack_payload`), costs
writes with one XOR-driven DCW kernel (:func:`repro.nvm.cell.dcw_cost`),
and programs a whole request in one loop.  The
references below are the per-cell formulation — cell tuples, one cell
at a time, one word at a time — kept only here.  Every comparison is
``==``, floats included: the energy sums must round identically.
"""

from typing import Dict, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import NVMConfig, tlc_levels_sorted_by_latency
from repro.common.stats import StatGroup
from repro.encoding.base import EncodedWord
from repro.encoding.expansion import (
    CELLS_PER_WORD,
    ExpansionPolicy,
    map_bits_to_cells,
    pack_payload,
)
from repro.nvm.array import TAG_CELLS, NvmArray, _tag_value
from repro.nvm.cell import cost_tables, dcw_cost, pristine_cost_table, program_cost

CONFIGS = (NVMConfig(), NVMConfig(write_latency_scale=2.5))
METHODS = ("raw", "fpc", "crade", "dldc", "slde", "flip-n-write", "bdi")


# ---------------------------------------------------------------------------
# Per-cell references
# ---------------------------------------------------------------------------

def reference_levels(payload: int, payload_bits: int, policy) -> Tuple[int, ...]:
    """One level per used cell, computed one cell at a time."""
    bpc = policy.bits_per_cell
    table = tlc_levels_sorted_by_latency()[: 1 << bpc]
    n_cells = (payload_bits + bpc - 1) // bpc
    return tuple(
        table[(payload >> (i * bpc)) & ((1 << bpc) - 1)] for i in range(n_cells)
    )


def reference_cost(old_levels, new_levels, config) -> Tuple[int, float, float]:
    """DCW over cell tuples: changed cells only, in ascending order."""
    programmed, latency, energy = 0, 0.0, 0.0
    for old, new in zip(old_levels, new_levels):
        if old == new:
            continue
        programmed += 1
        latency = max(latency, config.write_latency_ns(new))
        energy += config.write_energy_pj(new)
    return programmed, latency, energy


def pack(levels) -> int:
    return sum(level << (3 * i) for i, level in enumerate(levels))


class ReferenceArray:
    """The array's accounting, one word and one cell at a time."""

    def __init__(self, config: NVMConfig) -> None:
        self.config = config
        self.data: Dict[int, Tuple[int, ...]] = {}
        self.tags: Dict[int, Tuple[int, ...]] = {}
        self.logical: Dict[int, int] = {}
        self.wear: Dict[int, int] = {}
        self.stats = StatGroup("reference")

    def write_word(self, waddr: int, enc: EncodedWord, logical: int):
        if enc.silent:
            self.stats.add("silent_word_writes")
            return 0, 0, 0.0, 0.0
        old = self.data.get(waddr, (0,) * CELLS_PER_WORD)
        mapped = reference_levels(enc.payload, enc.payload_bits, enc.policy)
        new = mapped + old[len(mapped):]
        cells, latency, energy = reference_cost(old, new, self.config)
        self.data[waddr] = new
        if enc.tag_bits > 0 or enc.method != "raw":
            old_tags = self.tags.get(waddr, (0,) * TAG_CELLS)
            value = _tag_value(enc)
            new_tags = tuple((value >> (3 * i)) & 7 for i in range(TAG_CELLS))
            tag_cells, tag_latency, tag_energy = reference_cost(
                old_tags, new_tags, self.config)
            cells += tag_cells
            latency = max(latency, tag_latency)
            energy = energy + tag_energy
            self.tags[waddr] = new_tags
        self.logical[waddr] = logical
        if cells:
            self.wear[waddr] = self.wear.get(waddr, 0) + cells
        bits = enc.payload_bits + enc.tag_bits
        self.stats.add("word_writes")
        self.stats.add("cells_programmed", cells)
        self.stats.add("bits_written", bits)
        self.stats.add("energy_pj", energy)
        return cells, bits, latency, energy

    def write_words(self, addr: int, encoded, logicals):
        cells, bits, latency, energy = 0, 0, 0.0, 0.0
        for i, (enc, logical) in enumerate(zip(encoded, logicals)):
            c, b, lat, e = self.write_word(addr + 8 * i, enc, logical)
            cells += c
            bits += b
            latency = max(latency, lat)
            energy += e
        return cells, bits, latency, energy, cells == 0


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

levels22 = st.lists(st.integers(0, 7), min_size=CELLS_PER_WORD,
                    max_size=CELLS_PER_WORD)


@st.composite
def cell_pairs(draw, n_cells=CELLS_PER_WORD):
    """(old, new) level tuples, from identical through sparse to dense."""
    old = draw(st.lists(st.integers(0, 7), min_size=n_cells, max_size=n_cells))
    new = list(old)
    for i in draw(st.lists(st.integers(0, n_cells - 1), max_size=n_cells)):
        new[i] = draw(st.integers(0, 7))
    return tuple(old), tuple(new)


@st.composite
def payloads(draw):
    policy = draw(st.sampled_from(list(ExpansionPolicy)))
    bits = draw(st.integers(0, CELLS_PER_WORD * policy.bits_per_cell))
    payload = draw(st.integers(0, (1 << bits) - 1)) if bits else 0
    return payload, bits, policy


@st.composite
def encoded_words(draw):
    payload, bits, policy = draw(payloads())
    method = draw(st.sampled_from(METHODS))
    return EncodedWord(
        method=method,
        payload=payload,
        payload_bits=bits,
        tag_bits=0 if method == "raw" else draw(st.integers(0, 13)),
        policy=policy,
        tag_payload=draw(st.integers(0, 255)),
        dirty_mask=draw(st.none() | st.integers(0, 255)),
        silent=draw(st.integers(0, 3)) == 0,
    )


# A few lines' worth of word slots, so requests rewrite earlier words.
requests = st.lists(
    st.tuples(
        st.integers(0, 3).map(lambda line: 64 * line),
        st.lists(st.tuples(encoded_words(), st.integers(0, (1 << 64) - 1)),
                 min_size=1, max_size=8),
    ),
    min_size=1, max_size=8,
)


# ---------------------------------------------------------------------------
# Kernel and packer against the references
# ---------------------------------------------------------------------------

class TestDcwKernel:
    @pytest.mark.parametrize("config", CONFIGS, ids=["scale1", "scale2.5"])
    @settings(max_examples=300, deadline=None)
    @given(pair=cell_pairs())
    def test_data_cells_match_reference(self, config, pair):
        old, new = pair
        assert dcw_cost(pack(old), pack(new), *cost_tables(config)) == (
            reference_cost(old, new, config))

    @pytest.mark.parametrize("config", CONFIGS, ids=["scale1", "scale2.5"])
    @settings(max_examples=200, deadline=None)
    @given(pair=cell_pairs(TAG_CELLS))
    def test_tag_cells_match_reference(self, config, pair):
        old, new = pair
        assert dcw_cost(pack(old), pack(new), *cost_tables(config)) == (
            reference_cost(old, new, config))

    @settings(max_examples=100, deadline=None)
    @given(old=levels22, new=levels22)
    def test_program_cost_wrapper(self, old, new):
        config = CONFIGS[1]
        cost = program_cost(old, new, config)
        assert (cost.cells_programmed, cost.latency_ns, cost.energy_pj) == (
            reference_cost(old, new, config))

    @pytest.mark.parametrize("config", CONFIGS, ids=["scale1", "scale2.5"])
    def test_pristine_table_matches_reference(self, config):
        # Every three-cell image, programmed over pristine cells, with the
        # entry's energies added in order from 0.0 as the array adds them.
        table = pristine_cost_table(config)
        assert len(table) == 512
        for chunk, (cells, latency, e0, e1, e2) in enumerate(table):
            levels = tuple(chunk >> 3 * j & 7 for j in range(3))
            assert (cells, latency, 0.0 + e0 + e1 + e2) == (
                reference_cost((0, 0, 0), levels, config))

    def test_program_cost_rejects_bad_images(self):
        with pytest.raises(ValueError):
            program_cost((0,) * 23, (1,) * 23, NVMConfig())
        with pytest.raises(ValueError):
            program_cost((0,), (8,), NVMConfig())


class TestPayloadPacking:
    @pytest.mark.parametrize("policy", list(ExpansionPolicy))
    @pytest.mark.parametrize("bits", range(65))
    def test_every_width_matches_reference(self, policy, bits):
        # Fixed patterns at every width: all ones, alternating bits, sparse
        # bits and zero.  The Hypothesis test below draws the rest.
        for payload in ((1 << bits) - 1, 0x5555_5555_5555_5555 & ((1 << bits) - 1),
                        0x8000_0001_0010_0100 & ((1 << bits) - 1), 0):
            expected = reference_levels(payload, bits, policy)
            if len(expected) > CELLS_PER_WORD:
                with pytest.raises(ValueError):
                    pack_payload(payload, bits, policy)
                continue
            assert pack_payload(payload, bits, policy) == (
                pack(expected), len(expected))
            assert map_bits_to_cells(payload, bits, policy) == expected

    @settings(max_examples=500, deadline=None)
    @given(item=payloads())
    def test_random_payloads_match_reference(self, item):
        payload, bits, policy = item
        expected = reference_levels(payload, bits, policy)
        assert pack_payload(payload, bits, policy) == (pack(expected), len(expected))


# ---------------------------------------------------------------------------
# Whole requests: the fused loop against word-by-word accounting
# ---------------------------------------------------------------------------

def assert_same_state(array: NvmArray, reference: ReferenceArray) -> None:
    assert array.stats.as_dict() == reference.stats.as_dict()
    assert array.wear == reference.wear
    assert sorted(array.snapshot()) == sorted(reference.data)
    for waddr, levels in reference.data.items():
        slot = array.read_word(waddr)
        assert slot.data_cells == pack(levels)
        assert slot.tag_cells == pack(reference.tags.get(waddr, ()))
        assert slot.logical == reference.logical[waddr]


class TestWriteRequests:
    @pytest.mark.parametrize("config", CONFIGS, ids=["scale1", "scale2.5"])
    @settings(max_examples=100, deadline=None)
    @given(stream=requests)
    def test_requests_match_word_by_word_reference(self, config, stream):
        array = NvmArray(config, StatGroup("packed"))
        reference = ReferenceArray(config)
        for addr, words in stream:
            encoded = [enc for enc, _ in words]
            logicals = [logical for _, logical in words]
            cost = array.write_words(addr, encoded, logicals)
            assert (cost.cells_programmed, cost.bits_written,
                    cost.latency_ns, cost.energy_pj, cost.silent) == (
                reference.write_words(addr, encoded, logicals))
        assert_same_state(array, reference)
