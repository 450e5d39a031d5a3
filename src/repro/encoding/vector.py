"""Vectorized (numpy) encoding kernels for the replay fast path.

The scalar codecs in this package encode one word at a time; a recorded
trace (:mod:`repro.replay`) presents the whole store stream at once, so
its hot path evaluates the codec *classification* work — FPC prefix
classes, the DLDC Table-II pattern search, BDI delta fits, dirty-byte
masks, DCW/Flip-N-Write bit-flip counts — as batched numpy array ops and
only materializes payloads for the (few) distinct winners.

Every kernel mirrors one scalar function bit for bit:

====================  =======================================
kernel                scalar reference
====================  =======================================
vec_dirty_byte_mask   repro.common.bitops.dirty_byte_mask
vec_bit_flips         repro.common.bitops.flipped_bits
vec_fpc_prefix        repro.encoding.fpc.fpc_match
vec_bdi_tag           repro.encoding.bdi.bdi_compress (tag)
vec_dldc_pattern      repro.encoding.dldc.dldc_compress_pattern
vec_dldc_stream_bits  repro.encoding.dldc.DldcCodec._encode_dirty
vec_flipnwrite_flip   repro.encoding.flipnwrite.FlipNWriteCodec
====================  =======================================

The equivalence is pinned by the Hypothesis differential suite in
``tests/test_vector_codecs.py``; the memo-prewarm layer built on top
(:mod:`repro.replay.prewarm`) additionally relies on the PR-4 invariant
that memoized results are bit-identical to computed ones, so a kernel
bug would surface as a replay-differential failure, never as silently
different results.
"""

from typing import Tuple

import numpy as np

from repro.encoding.fpc import FPC_PREFIX_PAYLOAD_BITS
from repro.encoding.memo import (
    BYTE_FITS_SE2,
    BYTE_FITS_SE4,
    BYTE_LOW_NIBBLE_ZERO,
    FPC_SMALL_WORD_PREFIX,
)

__all__ = [
    "vec_dirty_byte_mask",
    "vec_bit_flips",
    "vec_flipnwrite_flip",
    "vec_fpc_prefix",
    "FPC_PREFIX_PAYLOAD_BITS",
    "vec_bdi_tag",
    "BDI_TAG_PAYLOAD_BITS",
    "vec_dldc_pattern",
    "vec_dldc_stream_bits",
]


def _as_u64(values) -> "np.ndarray":
    return np.ascontiguousarray(values, dtype=np.uint64)


# ---------------------------------------------------------------------------
# Dirty masks and bit flips
# ---------------------------------------------------------------------------

def vec_dirty_byte_mask(old, new) -> "np.ndarray":
    """Per-byte dirty flags for word pairs (mirrors dirty_byte_mask)."""
    diff = _as_u64(old) ^ _as_u64(new)
    mask = np.zeros(diff.shape, dtype=np.uint8)
    for i in range(8):
        byte = (diff >> np.uint64(8 * i)) & np.uint64(0xFF)
        mask |= (byte != 0).astype(np.uint8) << np.uint8(i)
    return mask


def vec_bit_flips(old, new) -> "np.ndarray":
    """DCW-programmed bit count per word pair (mirrors flipped_bits)."""
    return np.bitwise_count(_as_u64(old) ^ _as_u64(new))


def vec_flipnwrite_flip(old, new) -> "np.ndarray":
    """True where Flip-N-Write would store the complement."""
    o = _as_u64(old)
    n = _as_u64(new)
    plain = np.bitwise_count(o ^ n)
    inverted = np.bitwise_count(o ^ ~n)
    return inverted < plain


# ---------------------------------------------------------------------------
# FPC prefix classes
# ---------------------------------------------------------------------------

def _vec_fits_signed(w: "np.ndarray", bits: int) -> "np.ndarray":
    """fits_signed(word, bits, 64) over a uint64 array."""
    low = w & np.uint64((1 << bits) - 1)
    sign = (low >> np.uint64(bits - 1)) & np.uint64(1)
    fill = np.uint64(((1 << (64 - bits)) - 1) << bits)
    return (low | (sign * fill)) == w


_FPC_SMALL = None


def vec_fpc_prefix(words) -> "np.ndarray":
    """FPC prefix class per word (mirrors fpc_match, priority included)."""
    global _FPC_SMALL
    w = _as_u64(words)
    if _FPC_SMALL is None:
        _FPC_SMALL = np.array(FPC_SMALL_WORD_PREFIX, dtype=np.uint8)
    repeated = w == (w & np.uint64(0xFF)) * np.uint64(0x0101_0101_0101_0101)
    conditions = [
        w == 0,
        _vec_fits_signed(w, 4),
        repeated,
        _vec_fits_signed(w, 8),
        _vec_fits_signed(w, 16),
        _vec_fits_signed(w, 32),
        (w & np.uint64(0xFFFF_FFFF)) == 0,
    ]
    choices = [0b000, 0b001, 0b110, 0b010, 0b011, 0b100, 0b101]
    out = np.select(conditions, choices, default=0b111).astype(np.uint8)
    small = w < 256
    if small.any():
        out[small] = _FPC_SMALL[w[small].astype(np.intp)]
    return out


# ---------------------------------------------------------------------------
# BDI scheme tags
# ---------------------------------------------------------------------------

#: BDI tag -> payload bits (tag 2 is unused, parallel to bdi_compress).
BDI_TAG_PAYLOAD_BITS = (0, 16, 0, 48, 64, 64)


def vec_bdi_tag(words) -> "np.ndarray":
    """BDI scheme tag per word (mirrors bdi_compress's tag choice)."""
    w = _as_u64(words)
    tag = np.full(w.shape, 5, dtype=np.uint8)

    # Assign in reverse priority so the scalar search's first match wins.
    lanes4 = [
        ((w >> np.uint64(32 * i)) & np.uint64(0xFFFF_FFFF)).astype(np.int64)
        for i in range(2)
    ]
    ok4 = np.ones(w.shape, dtype=bool)
    for lane in lanes4:
        delta = (lane - lanes4[0]) & (1 << 32) - 1
        signed = np.where(delta >= 1 << 31, delta - (1 << 32), delta)
        ok4 &= (signed >= -(1 << 15)) & (signed < (1 << 15))
    tag[ok4] = 4

    lanes2 = [
        ((w >> np.uint64(16 * i)) & np.uint64(0xFFFF)).astype(np.int64)
        for i in range(4)
    ]
    ok3 = np.ones(w.shape, dtype=bool)
    ok1 = np.ones(w.shape, dtype=bool)
    for lane in lanes2:
        delta = (lane - lanes2[0]) & (1 << 16) - 1
        signed = np.where(delta >= 1 << 15, delta - (1 << 16), delta)
        ok3 &= (signed >= -128) & (signed < 128)
        ok1 &= lane == lanes2[0]
    tag[ok3] = 3
    tag[ok1] = 1
    tag[w == 0] = 0
    return tag


# ---------------------------------------------------------------------------
# DLDC Table-II pattern search
# ---------------------------------------------------------------------------

_SE2_TABLE = None
_SE4_TABLE = None
_LOW_NIBBLE_ZERO_TABLE = None


def _byte_tables():
    global _SE2_TABLE, _SE4_TABLE, _LOW_NIBBLE_ZERO_TABLE
    if _SE2_TABLE is None:
        _SE2_TABLE = np.array(BYTE_FITS_SE2, dtype=bool)
        _SE4_TABLE = np.array(BYTE_FITS_SE4, dtype=bool)
        _LOW_NIBBLE_ZERO_TABLE = np.array(BYTE_LOW_NIBBLE_ZERO, dtype=bool)
    return _SE2_TABLE, _SE4_TABLE, _LOW_NIBBLE_ZERO_TABLE


def vec_dldc_pattern(words, masks) -> Tuple["np.ndarray", "np.ndarray"]:
    """Table-II pattern search over (word, dirty-mask) rows.

    Returns ``(tag, payload_bits)`` per row: ``tag`` is the winning
    Table-II tag (int8) or -1 when no pattern matches, ``payload_bits``
    the winner's payload size.  Mirrors :func:`dldc_compress_pattern`
    applied to the word's dirty-byte string: ties keep the lowest tag,
    the sign-extension patterns need strings strictly wider than their
    base.  Rows with an empty mask (silent writes, which the scalar
    search refuses) report tag -1.
    """
    w = _as_u64(words)
    m = np.ascontiguousarray(masks, dtype=np.uint8)
    se2, se4, low_nibble_zero = _byte_tables()
    n = w.shape[0]

    bytes_ = np.empty((n, 8), dtype=np.uint8)
    for i in range(8):
        bytes_[:, i] = ((w >> np.uint64(8 * i)) & np.uint64(0xFF)).astype(np.uint8)
    dirty = ((m[:, None] >> np.arange(8, dtype=np.uint8)) & 1).astype(bool)
    k = dirty.sum(axis=1).astype(np.int64)
    ordinal = np.cumsum(dirty, axis=1) - 1  # only meaningful where dirty

    rows = np.arange(n)

    def byte_at(j):
        """The j-th dirty byte of each row (garbage where k <= j)."""
        sel = dirty & (ordinal == j)
        return bytes_[rows, sel.argmax(axis=1)]

    def sign_fill(b):
        return np.where(b & 0x80, 0xFF, 0).astype(np.uint8)

    def tail_is_fill(j, fill):
        """Dirty bytes with ordinal >= j all equal the row's fill byte."""
        bad = dirty & (ordinal >= j) & (bytes_ != fill[:, None])
        return ~bad.any(axis=1)

    def all_dirty(pred):
        return ~(dirty & ~pred).any(axis=1)

    b0 = byte_at(0)
    b1 = byte_at(1)
    b3 = byte_at(3)

    best_tag = np.full(n, -1, dtype=np.int8)
    best_bits = np.full(n, 1 << 30, dtype=np.int64)
    live = k > 0

    def consider(tag, valid, bits):
        better = live & valid & (bits < best_bits)
        best_tag[better] = tag
        best_bits[better] = np.broadcast_to(bits, (n,))[better]

    # Ascending tag order with a strict '<' keeps the lowest tag on ties,
    # like the scalar search.
    consider(0b000, all_dirty(bytes_ == 0), np.int64(0))
    consider(0b001, all_dirty(se2[bytes_]), 2 * k)
    consider(0b010, all_dirty(se4[bytes_]), 4 * k)
    consider(0b011, (k > 1) & tail_is_fill(1, sign_fill(b0)), np.int64(8))
    consider(0b100, (k > 2) & tail_is_fill(2, sign_fill(b1)), np.int64(16))
    consider(0b101, (k > 4) & tail_is_fill(4, sign_fill(b3)), np.int64(32))
    consider(0b110, all_dirty(low_nibble_zero[bytes_]), 4 * k)
    consider(0b111, (k > 1) & (b0 == 0), 8 * (k - 1))

    best_bits[best_tag < 0] = 0
    return best_tag, best_bits


def vec_dldc_stream_bits(words, masks):
    """Full DLDC stream sizing per (word, dirty-mask) row.

    Returns ``(tag, stream_bits, compressed)``: the payload-stream size
    exactly as :meth:`DldcCodec._encode_dirty` would charge it —
    ``[1-bit compressed][3-bit tag][pattern payload]`` when the winning
    pattern beats the raw dirty bytes, ``[1-bit][raw bytes]`` otherwise
    (``tag`` is -1 for raw rows).  Rows with an empty mask are silent
    log writes: tag -1, 0 bits, uncompressed.
    """
    m = np.ascontiguousarray(masks, dtype=np.uint8)
    tag, pattern_bits = vec_dldc_pattern(words, m)
    k = np.bitwise_count(m).astype(np.int64)
    compressed = (tag >= 0) & (pattern_bits + 3 < 8 * k)
    stream_bits = np.where(compressed, 1 + 3 + pattern_bits, 1 + 8 * k)
    stream_bits = np.where(k == 0, 0, stream_bits)
    tag = np.where(compressed, tag, -1).astype(np.int8)
    return tag, stream_bits, compressed
