"""Compression-ratio-aware expansion coding over TLC cells.

After compression, the compressed bits occupy less space than the original
word.  Expansion coding (IDM, Niu et al. ICCD'13; CompEx, Palangappa &
Mohanram HPCA'16; CRADE, Xu et al. ICCD'17) spends that slack to store
*fewer bits per cell*, restricted to the cheapest TLC levels:

- ratio >= 3x: 1 bit per cell, using the two cheapest of the 8 levels;
- ratio >= 1.5x: 2 bits per cell, using the four cheapest levels;
- otherwise: the raw 3-bits-per-cell mapping.

A 64-bit word occupies ceil(64/3) = 22 TLC cells, so the thresholds in
bits are q <= 22 (1 bit/cell fits 22 bits in 22 cells) and q <= 44.

The level subsets are chosen by program *latency*; with the paper's
Table III numbers the latency and energy orders agree on the four cheapest
levels (111, 000, 001, 110).
"""

import enum
from functools import lru_cache
from typing import Sequence, Tuple

from repro.common.bitops import WORD_BITS, split_cells
from repro.common.config import tlc_levels_sorted_by_latency

CELLS_PER_WORD = (WORD_BITS + 2) // 3  # 22 TLC cells hold one 64-bit word


class ExpansionPolicy(enum.Enum):
    """How payload bits map onto TLC cells."""

    RAW = 3       # 3 bits per cell, all 8 levels
    EXPAND2 = 2   # 2 bits per cell, 4 cheapest levels
    EXPAND1 = 1   # 1 bit per cell, 2 cheapest levels

    @property
    def bits_per_cell(self) -> int:
        return self.value


def policy_for_size(payload_bits: int, expansion_enabled: bool = True) -> ExpansionPolicy:
    """Pick the densest expansion policy whose capacity fits the payload.

    Capacity is bounded by the word's 22-cell footprint; a payload that
    does not fit an expanded mapping falls back to RAW.
    """
    if not expansion_enabled:
        return ExpansionPolicy.RAW
    if payload_bits <= CELLS_PER_WORD * 1:
        return ExpansionPolicy.EXPAND1
    if payload_bits <= CELLS_PER_WORD * 2:
        return ExpansionPolicy.EXPAND2
    return ExpansionPolicy.RAW


@lru_cache(maxsize=None)
def _level_table(policy: ExpansionPolicy) -> Tuple[int, ...]:
    """The TLC levels a policy is allowed to program, index = symbol."""
    ordered = tlc_levels_sorted_by_latency()
    return ordered[: 1 << policy.bits_per_cell]


#: Payload bits each table lookup of :func:`pack_payload` consumes.
PACK_CHUNK_BITS = 12
_PACK_CHUNK_MASK = (1 << PACK_CHUNK_BITS) - 1


def _pack_table(policy: ExpansionPolicy) -> Tuple[Tuple[int, ...], int]:
    """``(table, cells)``: one chunk of payload symbols -> packed levels.

    ``table[chunk]`` holds the levels of the chunk's ``cells`` cells,
    cell *j* of the chunk at bits 3j..3j+2.  Built one cell at a time:
    the new cell's symbol is the index's high part.
    """
    levels = _level_table(policy)
    bpc = policy.bits_per_cell
    cells = PACK_CHUNK_BITS // bpc
    table = [0]
    for j in range(cells):
        table = [levels[s] << (3 * j) | low for s in range(1 << bpc) for low in table]
    return tuple(table), cells


# Keyed by ``policy._value_`` (its bits per cell): a plain attribute read,
# where ``policy.value`` and hashing an enum member run Python-level code.
_PACK_TABLES = {policy._value_: _pack_table(policy) for policy in ExpansionPolicy}


def pack_payload(payload: int, payload_bits: int, policy: ExpansionPolicy) -> Tuple[int, int]:
    """Map a payload onto TLC cells; returns ``(cells, n_cells)``.

    ``cells`` packs the level of cell *i* at bits 3i..3i+2, for the
    ``n_cells`` cells the payload occupies; trailing cells of the word
    slot are left unprogrammed by the caller (that is where the
    expansion-coding write savings come from).  ``payload`` must fit
    ``payload_bits`` (as :class:`~repro.encoding.base.EncodedWord`
    guarantees).  One table lookup per :data:`PACK_CHUNK_BITS` payload
    bits.
    """
    bpc = policy._value_
    n_cells = (payload_bits + bpc - 1) // bpc
    if n_cells > CELLS_PER_WORD:
        raise ValueError(
            "payload of %d bits does not fit a word slot under %s"
            % (payload_bits, policy)
        )
    table, chunk_cells = _PACK_TABLES[bpc]
    step = 3 * chunk_cells
    width = 3 * n_cells
    cells = 0
    shift = 0
    while shift < width:
        cells |= table[payload & _PACK_CHUNK_MASK] << shift
        payload >>= PACK_CHUNK_BITS
        shift += step
    return cells & ((1 << width) - 1), n_cells


def map_bits_to_cells(payload: int, payload_bits: int, policy: ExpansionPolicy) -> Tuple[int, ...]:
    """Map a payload bitstream onto TLC cell levels under ``policy``.

    Returns the levels for the cells actually used, one per cell; the
    tuple form of :func:`pack_payload`.
    """
    if payload < 0 or payload >> payload_bits:
        raise ValueError("payload wider than declared size")
    cells, n_cells = pack_payload(payload, payload_bits, policy)
    return tuple(split_cells(cells, 3 * n_cells, 3))


def cells_to_bits(levels: Sequence[int], payload_bits: int, policy: ExpansionPolicy) -> int:
    """Inverse of :func:`map_bits_to_cells`."""
    table = _level_table(policy)
    inverse = {level: symbol for symbol, level in enumerate(table)}
    bpc = policy.bits_per_cell
    payload = 0
    for i, level in enumerate(levels):
        if level not in inverse:
            raise ValueError("cell level %d not valid under %s" % (level, policy))
        payload |= inverse[level] << (i * bpc)
    extra = payload_bits % bpc
    if extra:
        # The final cell carries padding bits beyond payload_bits.
        payload &= (1 << payload_bits) - 1
    return payload


def cells_used(payload_bits: int, policy: ExpansionPolicy) -> int:
    """Number of cells a payload occupies under a policy."""
    bpc = policy.bits_per_cell
    return (payload_bits + bpc - 1) // bpc
