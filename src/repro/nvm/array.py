"""The NVMM array: encoded word storage with per-write cost accounting.

Each 64-bit word slot owns 22 TLC data cells plus a small group of *tag
cells* holding the sideband metadata (encoding type flag, expansion policy,
DLDC dirty flag).  A write encodes the word (done by the module controller),
maps the payload onto cell levels, and programs data and tag cells under
DCW; cells beyond the encoded payload keep their old levels — that is where
expansion coding and DLDC save writes.

A slot's cells are packed ints, 3 bits per cell with cell *i* at bits
3i..3i+2: the data cells as :func:`~repro.encoding.expansion.pack_payload`
lays them out, the tag cells as the 21-bit tag value itself.

The array also keeps the *logical* value of every word so recovery and
tests can check decode(read(addr)) against ground truth, and supports
snapshot/restore for crash-injection testing.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.common.bitops import WORD_BYTES, WORD_MASK, align_down, mask_word
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


@dataclass(slots=True)
class StoredWord:
    """Physical state of one word slot (cells packed 3 bits per cell)."""

    logical: int
    data_cells: int
    tag_cells: int
    encoded: Optional[EncodedWord]

    @staticmethod
    def pristine() -> "StoredWord":
        return StoredWord(0, 0, 0, None)


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
        self._words: Dict[int, StoredWord] = {}
        self.stats = stats if stats is not None else StatGroup("nvm_array")
        # Per-word cumulative programmed-cell counts (endurance, §VI-C).
        self.wear: Dict[int, int] = {}
        # Active logical-write journal (crash-injection recovery probes).
        self._journal: Optional[Dict[int, Optional[int]]] = None
        self._cost_tables = cost_tables(config)
        self._dcw_memo: Dict[Tuple[int, int], Tuple[int, float, float]] = {}

    @staticmethod
    def word_addr(addr: int) -> int:
        return align_down(addr, WORD_BYTES)

    def _slot(self, addr: int) -> StoredWord:
        waddr = self.word_addr(addr)
        slot = self._words.get(waddr)
        if slot is None:
            slot = StoredWord.pristine()
            self._words[waddr] = slot
        return slot

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
        words = self._words
        wear = self.wear
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
            slot = words.get(waddr)
            if slot is None:
                slot = words[waddr] = StoredWord.pristine()
            old = slot.data_cells
            new, n_cells = pack_payload(enc.payload, enc.payload_bits, enc.policy)
            if n_cells < CELLS_PER_WORD:
                keep = 3 * n_cells
                new |= old >> keep << keep
            if new != old:
                key = (old, new)
                cells, word_latency, word_energy = memo_get(key) or miss(key)
                slot.data_cells = new
            else:
                cells, word_latency, word_energy = 0, 0.0, 0.0
            if enc.tag_bits > 0 or enc.method != "raw":
                old = slot.tag_cells
                new = _tag_value(enc)
                if new != old:
                    key = (old, new)
                    tag_cells, tag_latency, tag_energy = memo_get(key) or miss(key)
                    cells += tag_cells
                    if tag_latency > word_latency:
                        word_latency = tag_latency
                    word_energy += tag_energy
                    slot.tag_cells = new
            slot.logical = logical & WORD_MASK
            slot.encoded = enc
            if cells:
                wear[waddr] = wear.get(waddr, 0) + cells
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
        """Return the stored state of a word slot (pristine if unwritten)."""
        slot = self._words.get(self.word_addr(addr))
        return slot if slot is not None else StoredWord.pristine()

    def read_logical(self, addr: int) -> int:
        slot = self._words.get(addr & _ALIGN)
        return 0 if slot is None else slot.logical

    def write_logical(self, addr: int, value: int) -> None:
        """Set a slot's logical value without cost accounting.

        Used by the recovery routine, which copies log data to home
        locations outside the measured execution window.
        """
        if self._journal is not None:
            waddr = self.word_addr(addr)
            if waddr not in self._journal:
                slot = self._words.get(waddr)
                self._journal[waddr] = slot.logical if slot is not None else None
        self._slot(addr).logical = mask_word(value)

    def bulk_write_logical(self, addrs, values) -> None:
        """Install many logical words at once (trace-replay setup path).

        Semantically ``write_logical`` in a loop, with the per-call
        aligning/journal/dict overhead hoisted out; replaying a recorded
        setup image is pure data movement, so this is the hot path of
        :func:`repro.replay.replayer.apply_trace_setup`.
        """
        align = _ALIGN
        if not self._words and self._journal is None:
            # Empty array (a freshly reset machine): build the slot map
            # in one comprehension.  Duplicate addresses keep the last
            # value, same as sequential writes.
            self._words = {
                addr & align: StoredWord(value & WORD_MASK, 0, 0, None)
                for addr, value in zip(addrs, values)
            }
            return
        if self._journal is not None:
            for addr, value in zip(addrs, values):
                self.write_logical(addr, value)
            return
        words = self._words
        for addr, value in zip(addrs, values):
            waddr = addr & align
            slot = words.get(waddr)
            if slot is None:
                slot = StoredWord.pristine()
                words[waddr] = slot
            slot.logical = value & WORD_MASK

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
            for waddr, old in journal.items():
                if old is None:
                    self._words.pop(waddr, None)
                else:
                    self._words[waddr].logical = old

    def written_addresses(self, lo: int, hi: int) -> list:
        """Sorted word addresses with a slot allocated in ``[lo, hi)``.

        Design-private recovery (InCLL embedded slots, CoW page tables)
        heap-scans its durable region through this accessor; the array
        is sparse, so only slots that were ever written enumerate.
        """
        return sorted(addr for addr in self._words if lo <= addr < hi)

    def snapshot(self) -> Dict[int, StoredWord]:
        """Copy the persistent state for crash-injection tests."""
        return {
            addr: StoredWord(s.logical, s.data_cells, s.tag_cells, s.encoded)
            for addr, s in self._words.items()
        }

    def restore(self, snapshot: Dict[int, StoredWord]) -> None:
        self._words = {
            addr: StoredWord(s.logical, s.data_cells, s.tag_cells, s.encoded)
            for addr, s in snapshot.items()
        }

    def __len__(self) -> int:
        return len(self._words)
