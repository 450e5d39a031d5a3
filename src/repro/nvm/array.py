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
tracks them.  :class:`StoredWord` is only the detached view that
:meth:`NvmArray.read_word` and :meth:`NvmArray.snapshot` build.  The
array supports snapshot/restore for crash-injection testing.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.common.bitops import WORD_BYTES, WORD_MASK, align_down
from repro.common.config import NVMConfig
from repro.common.stats import StatGroup
from repro.encoding.base import EncodedWord
from repro.encoding.expansion import CELLS_PER_WORD, ExpansionPolicy, pack_payload
from repro.nvm.cell import cost_tables, dcw_cost

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

    @staticmethod
    def zero() -> "WriteCost":
        return WriteCost(0, 0, 0.0, 0.0, True)


def _tag_value(encoded: EncodedWord) -> int:
    method = _METHOD_IDS.get(encoded.method, 7)
    policy = _POLICY_IDS[encoded.policy._value_]
    dirty = encoded.dirty_mask or 0
    tag_payload = encoded.tag_payload & 0xFF
    return method | (policy << 3) | (dirty << 5) | (tag_payload << 13)


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

    @staticmethod
    def word_addr(addr: int) -> int:
        return align_down(addr, WORD_BYTES)

    @property
    def wear(self) -> Dict[int, int]:
        """Per-word cumulative programmed-cell counts (endurance, §VI-C)."""
        return {addr: state >> _WEAR_SHIFT for addr, state in self._cells.items()}

    def _cost_miss(self, key: Tuple[int, int]) -> Tuple[int, float, float]:
        """:func:`~repro.nvm.cell.dcw_cost` of ``key``, memoized."""
        memo = self._dcw_memo
        if len(memo) >= DCW_MEMO_ENTRIES:
            memo.clear()
        cost = memo[key] = dcw_cost(key[0], key[1], *self._cost_tables)
        return cost

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
        """
        logical_map = self._logical
        cells_map = self._cells
        cells_get = cells_map.get
        encoded_map = self._encoded
        stats = self.stats
        memo_get = self._dcw_memo.get
        miss = self._cost_miss
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
            state = cells_get(waddr, 0)
            old = state & _DATA_MASK
            new, n_cells = pack_payload(enc.payload, enc.payload_bits, enc.policy)
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
            logical_map[waddr] = logical & WORD_MASK
            encoded_map[waddr] = enc
            if cells:
                cells_map[waddr] = state + (cells << _WEAR_SHIFT)
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

    def read_word(self, addr: int) -> StoredWord:
        """Return a view of a word slot's state (pristine if unwritten)."""
        waddr = addr & _ALIGN
        return self._view(waddr, self._logical.get(waddr, 0))

    def read_logical(self, addr: int) -> int:
        return self._logical.get(addr & _ALIGN, 0)

    def write_logical(self, addr: int, value: int) -> None:
        """Set a slot's logical value without cost accounting.

        Used by the recovery routine, which copies log data to home
        locations outside the measured execution window.
        """
        waddr = addr & _ALIGN
        journal = self._journal
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
            for waddr, old in journal.items():
                if old is not None:
                    logical[waddr] = old
                    continue
                # A dropped slot loses its cells and encoding, not its wear.
                logical.pop(waddr, None)
                self._encoded.pop(waddr, None)
                if waddr in cells:
                    cells[waddr] = cells[waddr] >> _WEAR_SHIFT << _WEAR_SHIFT

    def written_addresses(self, lo: int, hi: int) -> list:
        """Sorted word addresses with a slot allocated in ``[lo, hi)``.

        Design-private recovery (InCLL embedded slots, CoW page tables)
        heap-scans its durable region through this accessor; the array
        is sparse, so only slots that were ever written enumerate.
        """
        return sorted(addr for addr in self._logical if lo <= addr < hi)

    def snapshot(self) -> Dict[int, StoredWord]:
        """Copy the persistent state for crash-injection tests."""
        return {
            addr: self._view(addr, logical) for addr, logical in self._logical.items()
        }

    def restore(self, snapshot: Dict[int, StoredWord]) -> None:
        """Roll the slots back to ``snapshot``; every address keeps its wear."""
        self._logical = {addr: s.logical for addr, s in snapshot.items()}
        self._encoded = {
            addr: s.encoded for addr, s in snapshot.items() if s.encoded is not None
        }
        cells = {
            addr: state >> _WEAR_SHIFT << _WEAR_SHIFT
            for addr, state in self._cells.items()
        }
        for addr, s in snapshot.items():
            packed = s.data_cells | s.tag_cells << _TAG_SHIFT
            if packed:
                cells[addr] = cells.get(addr, 0) | packed
        self._cells = cells

    def __len__(self) -> int:
        return len(self._logical)
