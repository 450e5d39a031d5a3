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

Decoding needs the dirty flag plus a *base word* supplying the clean
bytes.  During recovery the base word is the in-place data at the entry's
home address, whose clean bytes were never programmed (DCW skips them).
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.bitops import (
    WORD_BYTES,
    bytes_to_word,
    fits_signed,
    mask_word,
    scatter_bytes,
    select_bytes,
    sign_extend,
)
from repro.encoding.base import EncodedWord, WordCodec
from repro.encoding.expansion import policy_for_size
from repro.encoding.memo import (
    BYTE_FITS_SE2,
    BYTE_FITS_SE4,
    BYTE_LOW_NIBBLE_ZERO,
    DLDC_PATTERN_BITS,
)

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


def _value_of(data: List[int]) -> int:
    return bytes_to_word(data) if len(data) <= WORD_BYTES else int.from_bytes(
        bytes(data), "little"
    )


def _pattern_payload(tag: int, data: List[int], value: int) -> int:
    """Build the payload of one Table II pattern (the search's winner)."""
    if tag == 0b000:
        return 0
    if tag == 0b001:
        payload = 0
        for i, b in enumerate(data):
            payload |= (b & 0b11) << (2 * i)
        return payload
    if tag == 0b010:
        payload = 0
        for i, b in enumerate(data):
            payload |= (b & 0xF) << (4 * i)
        return payload
    if tag == 0b011:
        return value & 0xFF
    if tag == 0b100:
        return value & 0xFFFF
    if tag == 0b101:
        return value & 0xFFFF_FFFF
    if tag == 0b110:
        payload = 0
        for i, b in enumerate(data):
            payload |= (b >> 4) << (4 * i)
        return payload
    payload = 0
    for i, b in enumerate(data[1:]):
        payload |= b << (8 * i)
    return payload


def dldc_compress_pattern(data: List[int]) -> Optional[Tuple[int, int, int]]:
    """Try the Table II patterns on a dirty-byte string.

    Returns ``(tag, payload, payload_bits)`` for the smallest matching
    pattern, or None when no pattern matches.  ``data`` is the little-endian
    dirty-byte sequence (clean bytes already discarded).

    Pattern applicability runs over the precomputed per-byte tables and the
    Table II cost table of :mod:`repro.encoding.memo`, so only the winning
    pattern's payload is ever materialized.  Ties keep the lowest tag, like
    the original candidate-list ``min``.
    """
    if not data:
        raise ValueError("empty dirty-byte string")
    k = len(data)
    n_bits = 8 * k
    value = _value_of(data)
    if value == 0:
        return 0b000, 0, 0

    costs = DLDC_PATTERN_BITS
    best_tag = -1
    best_bits = 1 << 30
    if all(BYTE_FITS_SE2[b] for b in data):
        best_tag, best_bits = 0b001, costs[0b001][k]
    bits = costs[0b010][k]
    if bits < best_bits and all(BYTE_FITS_SE4[b] for b in data):
        best_tag, best_bits = 0b010, bits
    for tag, from_bits in ((0b011, 8), (0b100, 16), (0b101, 32)):
        bits = costs[tag][k]
        if bits is not None and bits < best_bits and fits_signed(
            value, from_bits, n_bits
        ):
            best_tag, best_bits = tag, bits
    bits = costs[0b110][k]
    if bits < best_bits and all(BYTE_LOW_NIBBLE_ZERO[b] for b in data):
        best_tag, best_bits = 0b110, bits
    bits = costs[0b111][k]
    if bits is not None and bits < best_bits and data[0] == 0:
        best_tag, best_bits = 0b111, bits

    if best_tag < 0:
        return None
    return best_tag, _pattern_payload(best_tag, data, value), best_bits


def dldc_decompress_pattern(tag: int, payload: int, k: int) -> List[int]:
    """Inverse of :func:`dldc_compress_pattern` for ``k`` dirty bytes."""
    n_bits = 8 * k
    if tag == 0b000:
        return [0] * k
    if tag == 0b001:
        return [sign_extend((payload >> (2 * i)) & 0b11, 2, 8) for i in range(k)]
    if tag == 0b010:
        return [sign_extend((payload >> (4 * i)) & 0xF, 4, 8) for i in range(k)]
    if tag in (0b011, 0b100, 0b101):
        from_bits = {0b011: 8, 0b100: 16, 0b101: 32}[tag]
        value = sign_extend(payload, from_bits, n_bits)
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
        dirty = select_bytes(word, dirty_mask)
        k = len(dirty)
        match = dldc_compress_pattern(dirty)
        if match is not None and match[2] + DLDC_TAG_BITS < 8 * k:
            tag, payload, bits = match
            stream = 1 | (tag << DLDC_HEADER_BITS) | (
                payload << (DLDC_HEADER_BITS + DLDC_TAG_BITS)
            )
            stream_bits = DLDC_HEADER_BITS + DLDC_TAG_BITS + bits
        else:
            body = 0
            for i, b in enumerate(dirty):
                body |= b << (8 * i)
            stream = 0 | (body << DLDC_HEADER_BITS)
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
        if encoded.dirty_mask is None:
            raise ValueError("DLDC encoding lost its dirty mask")
        if old_word is None:
            raise ValueError("DLDC decode needs the in-place (base) word")
        parsed = self.parse(encoded)
        return scatter_bytes(mask_word(old_word), parsed.dirty_mask, parsed.dirty_bytes)

    def parse(self, encoded: EncodedWord) -> DldcEncoding:
        """Split a DLDC payload stream back into its components."""
        mask = encoded.dirty_mask or 0
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
