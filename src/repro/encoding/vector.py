"""Vectorized (numpy) encoding kernels for store-stream statistics.

A recorded trace (:mod:`repro.replay`) holds the old/new word of every
persistent transactional store, so the motivation statistics
(:mod:`repro.analysis.motivation`: Fig 5 clean bytes, Table II DLDC
patterns) classify the whole stream at once as numpy array ops instead
of one scalar codec call per store.

Every kernel mirrors one scalar function bit for bit:

====================  =======================================
kernel                scalar reference
====================  =======================================
vec_dirty_byte_mask   repro.common.bitops.dirty_byte_mask
vec_dldc_pattern      repro.encoding.dldc.dldc_compress_pattern
vec_dldc_stream_bits  repro.encoding.dldc.DldcCodec._encode_dirty
====================  =======================================

The equivalence is pinned by the Hypothesis differential suite in
``tests/test_vector_codecs.py``.
"""

from typing import Tuple

import numpy as np

from repro.encoding.memo import BYTE_FITS_SE2, BYTE_FITS_SE4, BYTE_LOW_NIBBLE_ZERO

__all__ = [
    "vec_dirty_byte_mask",
    "vec_dldc_pattern",
    "vec_dldc_stream_bits",
]


def _as_u64(values) -> "np.ndarray":
    return np.ascontiguousarray(values, dtype=np.uint64)


# ---------------------------------------------------------------------------
# Dirty masks
# ---------------------------------------------------------------------------

def vec_dirty_byte_mask(old, new) -> "np.ndarray":
    """Per-byte dirty flags for word pairs (mirrors dirty_byte_mask)."""
    diff = _as_u64(old) ^ _as_u64(new)
    mask = np.zeros(diff.shape, dtype=np.uint8)
    for i in range(8):
        byte = (diff >> np.uint64(8 * i)) & np.uint64(0xFF)
        mask |= (byte != 0).astype(np.uint8) << np.uint8(i)
    return mask


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
