"""Differential log data compression (DLDC) — paper section IV-A, Table II.

DLDC is the log-aware codec MorLog contributes.  It exploits CONSEQUENCE 2
of the paper: *the log data for clean updated data are also clean*.  Given
the per-byte dirty flag of a log entry (set by comparing the old and new
value of the write that produced it), DLDC:

1. drops the entry entirely when every byte is clean (a *silent log
   write*);
2. otherwise discards the clean bytes, keeping only the dirty ones;
3. then tries to compress the dirty-byte string with the eight
   predetermined data patterns of Table II, keeping the smallest match.

The search tests every dirty byte at once with lane arithmetic and picks
the winner from :data:`DLDC_PATTERN_BITS`; the motivation statistics
(:mod:`repro.analysis.motivation`) take Table II's census from it too.

Decoding needs the dirty flag plus a *base word* supplying the clean
bytes.  During recovery the base word is the in-place data at the entry's
home address, whose clean bytes were never programmed (DCW skips them).
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.bitops import (
    WORD_BYTES,
    bytes_to_word,
    mask_word,
    scatter_bytes,
    sign_extend,
)
from repro.encoding.base import EncodedWord, WordCodec
from repro.encoding.expansion import policy_for_size

DLDC_TAG_BITS = 3
# 1-bit header distinguishing pattern-compressed from raw dirty bytes; the
# eight Table II tags cover only compressible strings.
DLDC_HEADER_BITS = 1

#: Table II tags, for reporting.
PATTERN_NAMES = {
    0b000: "all-zero",
    0b001: "2-bit-se-per-byte",
    0b010: "4-bit-se-per-byte",
    0b011: "1-byte-se",
    0b100: "2-byte-se",
    0b101: "4-byte-se",
    0b110: "4-bit-zero-padded-per-byte",
    0b111: "zero-low-byte",
}

#: Table-II payload bits, ``DLDC_PATTERN_BITS[tag][k]`` on a ``k``-byte
#: dirty string; None below the shortest string a pattern is defined for
#: (k = 0 is a silent write, which never reaches the search; a
#: sign-extension pattern needs a string wider than its base, zero-low-byte
#: a second byte).  Every defined cost plus the tag is below the ``8 * k``
#: raw bits, so any match beats the raw dirty bytes (pinned in
#: tests/test_dldc.py).
DLDC_PATTERN_BITS = {
    tag: tuple(cost(k) if k >= min_k else None for k in range(WORD_BYTES + 1))
    for tag, min_k, cost in (
        (0b000, 1, lambda k: 0),            # all-zero
        (0b001, 1, lambda k: 2 * k),        # 2-bit sign-extension per byte
        (0b010, 1, lambda k: 4 * k),        # 4-bit sign-extension per byte
        (0b011, 2, lambda k: 8),            # 1-byte sign-extended value
        (0b100, 3, lambda k: 16),           # 2-byte sign-extended value
        (0b101, 5, lambda k: 32),           # 4-byte sign-extended value
        (0b110, 1, lambda k: 4 * k),        # zero-padded low nibbles
        (0b111, 2, lambda k: 8 * (k - 1)),  # zero low byte
    )
}

# The search works on the k dirty bytes packed little-endian into one
# int.  ``_LANES[k]`` has 0x01 in each of its k byte lanes, so a per-byte
# test is one masked compare over every lane at once.
_LANES = tuple(int.from_bytes(b"\x01" * k, "little") for k in range(WORD_BYTES + 1))
#: dirty mask -> the shift of each dirty byte in the word, in order.
_DIRTY_SHIFTS = tuple(
    tuple(8 * i for i in range(WORD_BYTES) if mask >> i & 1) for mask in range(256)
)
# Sign-extended value patterns: tag -> the width they extend from.
_SE_WIDTHS = {0b011: 8, 0b100: 16, 0b101: 32}
# Per-byte patterns: the bit field of each byte their payload keeps,
# as (shift within the byte, width).
_BYTE_FIELDS = {0b001: (0, 2), 0b010: (0, 4), 0b110: (4, 4)}


def _compress(v: int, k: int) -> Optional[Tuple[int, int, int]]:
    """:func:`dldc_compress_pattern` on the ``k`` bytes packed in ``v``.

    With ``L = _LANES[k]`` and ``H = 0x80 * L``, ``((v & ~H) + c * L) ^
    (v & H)`` adds ``c`` to every byte with no carry between bytes: each
    byte fits 2 (4) signed bits when adding 2 (8) leaves its top 6 (4)
    bits zero.  The string fits ``b`` signed bits when ``(v + 2**(b-1))
    mod 2**(8k) < 2**b``.
    """
    if v == 0:
        return 0b000, 0, 0
    lanes = _LANES[k]
    low7 = v & 0x7F * lanes
    high = v ^ low7
    costs = DLDC_PATTERN_BITS
    best_tag = -1
    best_bits = 1 << 30
    if (low7 + 2 * lanes ^ high) & 0xFC * lanes == 0:
        best_tag, best_bits = 0b001, costs[0b001][k]
    bits = costs[0b010][k]
    if bits < best_bits and (low7 + 8 * lanes ^ high) & 0xF0 * lanes == 0:
        best_tag, best_bits = 0b010, bits
    for tag, width in _SE_WIDTHS.items():
        bits = costs[tag][k]
        if bits is not None and bits < best_bits:
            if (v + (1 << width - 1)) & (1 << 8 * k) - 1 < 1 << width:
                best_tag, best_bits = tag, bits
    bits = costs[0b110][k]
    if bits < best_bits and v & 0x0F * lanes == 0:
        best_tag, best_bits = 0b110, bits
    bits = costs[0b111][k]
    if bits is not None and bits < best_bits and v & 0xFF == 0:
        best_tag, best_bits = 0b111, bits

    if best_tag < 0:
        return None
    if best_tag in _SE_WIDTHS:
        return best_tag, v & (1 << _SE_WIDTHS[best_tag]) - 1, best_bits
    if best_tag == 0b111:
        return best_tag, v >> 8, best_bits
    shift, width = _BYTE_FIELDS[best_tag]
    payload = 0
    for i in range(k):
        payload |= (v >> 8 * i + shift & (1 << width) - 1) << width * i
    return best_tag, payload, best_bits


def dldc_compress_pattern(data: List[int]) -> Optional[Tuple[int, int, int]]:
    """Try the Table II patterns on a dirty-byte string.

    Returns ``(tag, payload, payload_bits)`` for the smallest matching
    pattern, or None when no pattern matches.  ``data`` is the little-endian
    dirty-byte sequence (clean bytes already discarded).  Ties keep the
    lowest tag; only the winning pattern's payload is built.
    """
    if not data:
        raise ValueError("empty dirty-byte string")
    return _compress(bytes_to_word(data), len(data))


def dldc_decompress_pattern(tag: int, payload: int, k: int) -> List[int]:
    """Inverse of :func:`dldc_compress_pattern` for ``k`` dirty bytes."""
    n_bits = 8 * k
    if tag == 0b000:
        return [0] * k
    if tag == 0b001:
        return [sign_extend((payload >> (2 * i)) & 0b11, 2, 8) for i in range(k)]
    if tag == 0b010:
        return [sign_extend((payload >> (4 * i)) & 0xF, 4, 8) for i in range(k)]
    if tag in _SE_WIDTHS:
        value = sign_extend(payload, _SE_WIDTHS[tag], n_bits)
        return [(value >> (8 * i)) & 0xFF for i in range(k)]
    if tag == 0b110:
        return [((payload >> (4 * i)) & 0xF) << 4 for i in range(k)]
    if tag == 0b111:
        return [0] + [(payload >> (8 * i)) & 0xFF for i in range(k - 1)]
    raise ValueError("unknown DLDC tag %d" % tag)


@dataclass(frozen=True)
class DldcEncoding:
    """Decoded view of a DLDC payload stream, for tests and reporting."""

    dirty_mask: int
    compressed: bool
    tag: Optional[int]
    dirty_bytes: List[int]


# The silent log write is input-independent, so every silent encode
# returns this one frozen instance instead of allocating a fresh result.
_SILENT_LOG_WRITE = EncodedWord(
    method="dldc",
    payload=0,
    payload_bits=0,
    tag_bits=0,
    policy=policy_for_size(0),
    dirty_mask=0,
    silent=True,
)


class DldcCodec(WordCodec):
    """DLDC as a word codec for *log data*.

    The payload stream layout is ``[1-bit compressed?][3-bit tag?][body]``.
    The per-word dirty flag (8 bits, one per byte — section VI-A) rides in
    the sideband and is charged as tag bits.
    """

    name = "dldc"
    DIRTY_FLAG_BITS = WORD_BYTES  # one flag bit per log data byte

    def encode(self, word: int, old_word: Optional[int] = None) -> EncodedWord:
        raise TypeError(
            "DLDC compresses only log data; use encode_log with a dirty mask"
        )

    def encode_log(self, word: int, dirty_mask: int) -> EncodedWord:
        """Encode one word of undo or redo data given its dirty flag."""
        if not 0 <= dirty_mask < (1 << WORD_BYTES):
            raise ValueError("dirty mask must be 8 bits")
        word = mask_word(word)
        if dirty_mask == 0:
            # Silent log write: all bytes clean, nothing reaches NVMM.
            return _SILENT_LOG_WRITE
        return self._encode_dirty(word, dirty_mask)

    def _encode_dirty(self, word: int, dirty_mask: int) -> EncodedWord:
        shifts = _DIRTY_SHIFTS[dirty_mask]
        k = len(shifts)
        v = 0
        for i, shift in enumerate(shifts):
            v |= (word >> shift & 0xFF) << 8 * i
        match = _compress(v, k)
        if match is not None:
            tag, payload, bits = match
            stream = 1 | (tag << DLDC_HEADER_BITS) | (
                payload << (DLDC_HEADER_BITS + DLDC_TAG_BITS)
            )
            stream_bits = DLDC_HEADER_BITS + DLDC_TAG_BITS + bits
        else:
            stream = v << DLDC_HEADER_BITS
            stream_bits = DLDC_HEADER_BITS + 8 * k
        return EncodedWord(
            method=self.name,
            payload=stream,
            payload_bits=stream_bits,
            tag_bits=self.DIRTY_FLAG_BITS,
            policy=policy_for_size(stream_bits),
            dirty_mask=dirty_mask,
        )

    def decode(self, encoded: EncodedWord, old_word: Optional[int] = None) -> int:
        """Reconstruct the full word; ``old_word`` supplies clean bytes."""
        if encoded.method != self.name:
            raise ValueError("not a DLDC encoding: %r" % encoded.method)
        if encoded.silent:
            if old_word is None:
                raise ValueError("silent entries decode to the in-place word")
            return mask_word(old_word)
        parsed = self.parse(encoded)
        if old_word is None:
            raise ValueError("DLDC decode needs the in-place (base) word")
        return scatter_bytes(mask_word(old_word), parsed.dirty_mask, parsed.dirty_bytes)

    def parse(self, encoded: EncodedWord) -> DldcEncoding:
        """Split a DLDC payload stream back into its components.

        Refuses what :meth:`decode` refuses: another codec's encoding,
        or one without its dirty mask (a silent entry's mask is 0).
        """
        if encoded.method != self.name:
            raise ValueError("not a DLDC encoding: %r" % encoded.method)
        mask = encoded.dirty_mask
        if mask is None:
            raise ValueError("DLDC encoding lost its dirty mask")
        k = bin(mask).count("1")
        stream = encoded.payload
        compressed = bool(stream & 1)
        if compressed:
            tag = (stream >> DLDC_HEADER_BITS) & ((1 << DLDC_TAG_BITS) - 1)
            payload = stream >> (DLDC_HEADER_BITS + DLDC_TAG_BITS)
            dirty = dldc_decompress_pattern(tag, payload, k)
            return DldcEncoding(mask, True, tag, dirty)
        body = stream >> DLDC_HEADER_BITS
        dirty = [(body >> (8 * i)) & 0xFF for i in range(k)]
        return DldcEncoding(mask, False, None, dirty)
