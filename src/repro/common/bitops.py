"""Bit- and byte-level helpers used throughout the simulator.

Data values travel through the simulator as unsigned Python integers:
64-bit *words* (the paper logs at 64-bit word granularity, section III-A)
and 64-byte *lines* represented as tuples of eight words.  All helpers here
are pure functions so they can be property-tested in isolation.
"""

from typing import List, Sequence, Tuple

WORD_BITS = 64
WORD_BYTES = 8
WORD_MASK = (1 << WORD_BITS) - 1
LINE_BYTES = 64
WORDS_PER_LINE = LINE_BYTES // WORD_BYTES


def mask_word(value: int) -> int:
    """Truncate ``value`` to an unsigned 64-bit word."""
    return value & WORD_MASK


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    if value < 0:
        raise ValueError("popcount expects a non-negative integer")
    return bin(value).count("1")


def flipped_bits(old: int, new: int) -> int:
    """Number of bit positions that differ between two words.

    This is the quantity DCW (data-comparison write) programs when writing
    SLC cells, and the basis of the paper's "clean bit" observation.
    """
    return popcount((old ^ new) & WORD_MASK)


def word_bytes(value: int) -> List[int]:
    """Split a 64-bit word into 8 little-endian bytes (byte 0 first)."""
    value = mask_word(value)
    return [(value >> (8 * i)) & 0xFF for i in range(WORD_BYTES)]


def bytes_to_word(data: Sequence[int]) -> int:
    """Inverse of :func:`word_bytes`."""
    if len(data) > WORD_BYTES:
        raise ValueError("at most 8 bytes fit in a word")
    value = 0
    for i, byte in enumerate(data):
        if not 0 <= byte <= 0xFF:
            raise ValueError("byte out of range: %r" % (byte,))
        value |= byte << (8 * i)
    return value


def dirty_byte_mask(old: int, new: int) -> int:
    """8-bit mask with bit *i* set when byte *i* of the word changed.

    This is exactly the *dirty flag* DLDC attaches to each log buffer entry
    (section IV-A): one flag bit per byte of undo/redo data.
    """
    diff = (old ^ new) & WORD_MASK
    # Fold each byte onto its low bit, then gather the eight low bits
    # into the top byte with one multiply: byte i's bit at 8i moves by
    # 56 - 7i to bit 56 + i, and no two partial products overlap.
    diff |= diff >> 4
    diff |= diff >> 2
    diff |= diff >> 1
    return (diff & 0x0101_0101_0101_0101) * 0x0102_0408_1020_4080 >> 56 & 0xFF


def dirty_byte_count(old: int, new: int) -> int:
    """Number of bytes of the word that changed."""
    return popcount(dirty_byte_mask(old, new))


def select_bytes(value: int, mask: int) -> List[int]:
    """Return the bytes of ``value`` whose bit is set in ``mask``, in order."""
    all_bytes = word_bytes(value)
    return [all_bytes[i] for i in range(WORD_BYTES) if mask & (1 << i)]


def scatter_bytes(base: int, mask: int, dirty: Sequence[int]) -> int:
    """Write ``dirty`` bytes into ``base`` at the positions set in ``mask``.

    Inverse of :func:`select_bytes` given the clean bytes of ``base``; used
    by the DLDC decoder to reconstruct a word from its dirty bytes during
    recovery (section IV-A, "the dirty flags indicate which bytes of the
    in-place data need to be written").
    """
    out = word_bytes(base)
    it = iter(dirty)
    for i in range(WORD_BYTES):
        if mask & (1 << i):
            out[i] = next(it)
    remaining = sum(1 for _ in it)
    if remaining:
        raise ValueError("more dirty bytes than mask positions")
    return bytes_to_word(out)


def line_to_words(data: bytes) -> Tuple[int, ...]:
    """Convert a 64-byte buffer to a tuple of eight little-endian words."""
    if len(data) != LINE_BYTES:
        raise ValueError("a cache line is exactly 64 bytes")
    return tuple(
        int.from_bytes(data[i * WORD_BYTES:(i + 1) * WORD_BYTES], "little")
        for i in range(WORDS_PER_LINE)
    )


def words_to_line(words: Sequence[int]) -> bytes:
    """Inverse of :func:`line_to_words`."""
    if len(words) != WORDS_PER_LINE:
        raise ValueError("a cache line is exactly 8 words")
    return b"".join(mask_word(w).to_bytes(WORD_BYTES, "little") for w in words)


def split_cells(value: int, width_bits: int, bits_per_cell: int) -> List[int]:
    """Split a ``width_bits``-wide value into cell levels, LSB-first.

    A TLC cell stores 3 bits (``bits_per_cell=3``).  When ``width_bits`` is
    not a multiple of ``bits_per_cell`` the final cell is zero-padded, which
    matches how a 512-bit line maps onto ceil(512/3) = 171 TLC cells.
    """
    if bits_per_cell <= 0:
        raise ValueError("bits_per_cell must be positive")
    n_cells = (width_bits + bits_per_cell - 1) // bits_per_cell
    cell_mask = (1 << bits_per_cell) - 1
    return [(value >> (i * bits_per_cell)) & cell_mask for i in range(n_cells)]


def join_cells(cells: Sequence[int], bits_per_cell: int) -> int:
    """Inverse of :func:`split_cells` (padding bits come back as zeros)."""
    value = 0
    for i, cell in enumerate(cells):
        if not 0 <= cell < (1 << bits_per_cell):
            raise ValueError("cell level out of range")
        value |= cell << (i * bits_per_cell)
    return value


def sign_extend(value: int, from_bits: int, to_bits: int = WORD_BITS) -> int:
    """Sign-extend the ``from_bits`` low bits of ``value`` to ``to_bits``.

    Returned as an unsigned integer in ``to_bits`` bits (two's complement).
    """
    if from_bits <= 0 or from_bits > to_bits:
        raise ValueError("invalid bit widths")
    value &= (1 << from_bits) - 1
    if value & (1 << (from_bits - 1)):
        value |= ((1 << (to_bits - from_bits)) - 1) << from_bits
    return value


def fits_signed(value: int, bits: int, width: int = WORD_BITS) -> bool:
    """True when the ``width``-bit unsigned ``value``, read as two's
    complement, is representable in ``bits`` signed bits."""
    return sign_extend(value & ((1 << bits) - 1), bits, width) == (
        value & ((1 << width) - 1)
    )


def align_down(addr: int, granularity: int) -> int:
    """Round ``addr`` down to a multiple of ``granularity``."""
    return addr - (addr % granularity)


def align_up(addr: int, granularity: int) -> int:
    """Round ``addr`` up to a multiple of ``granularity``."""
    return align_down(addr + granularity - 1, granularity)
