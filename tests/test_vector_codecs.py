"""Vectorized encoding kernels are bit-exact against the scalar codecs.

The motivation statistics (:mod:`repro.analysis.motivation`) classify a
recorded trace's old/new word pairs with the numpy kernels of
:mod:`repro.encoding.vector`.  That is only sound if every kernel
mirrors its scalar reference bit for bit; these Hypothesis differential
tests pin each one.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.common.bitops import dirty_byte_mask, mask_word, select_bytes
from repro.encoding.dldc import DldcCodec, dldc_compress_pattern
from repro.encoding.vector import (
    vec_dirty_byte_mask,
    vec_dldc_pattern,
    vec_dldc_stream_bits,
)

words = st.integers(min_value=0, max_value=(1 << 64) - 1)
masks = st.integers(min_value=0, max_value=0xFF)

#: Bias toward the structured words the patterns actually match —
#: uniform u64 is almost always incompressible.
structured = st.one_of(
    words,
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=(1 << 16) - 1),
    # sign-extended negatives of various widths
    st.integers(min_value=1, max_value=(1 << 16) - 1).map(
        lambda v: mask_word(-v)
    ),
    # repeated bytes / zero low half / low-nibble-zero bytes
    st.integers(min_value=0, max_value=0xFF).map(
        lambda b: b * 0x0101_0101_0101_0101
    ),
    st.integers(min_value=0, max_value=(1 << 32) - 1).map(lambda v: v << 32),
    st.integers(min_value=0, max_value=(1 << 32) - 1).map(
        lambda v: (v & 0xF0F0_F0F0) * 0x1_0000_0001
    ),
)

pair_lists = st.lists(st.tuples(words, words), min_size=1, max_size=16)


def u64(values):
    return np.array(values, dtype=np.uint64)


class TestBitKernels:
    @settings(max_examples=200, deadline=None)
    @given(pair_lists)
    def test_dirty_byte_mask(self, pairs):
        old, new = zip(*pairs)
        got = vec_dirty_byte_mask(u64(old), u64(new))
        assert got.tolist() == [dirty_byte_mask(o, n) for o, n in pairs]


class TestDldcKernels:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.one_of(words, structured), masks),
                    min_size=1, max_size=16))
    def test_pattern_matches_scalar(self, rows):
        ws = u64([w for w, _ in rows])
        ms = np.array([m for _, m in rows], dtype=np.uint8)
        tags, bits = vec_dldc_pattern(ws, ms)
        for (w, m), tag, payload_bits in zip(rows, tags.tolist(), bits.tolist()):
            if m == 0:
                assert tag == -1 and payload_bits == 0
                continue
            match = dldc_compress_pattern(select_bytes(mask_word(w), m))
            if match is None:
                assert tag == -1 and payload_bits == 0
            else:
                assert (tag, payload_bits) == (match[0], match[2])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.one_of(words, structured), masks),
                    min_size=1, max_size=16))
    def test_stream_bits_match_encode_dirty(self, rows):
        ws = u64([w for w, _ in rows])
        ms = np.array([m for _, m in rows], dtype=np.uint8)
        tags, stream_bits, compressed = vec_dldc_stream_bits(ws, ms)
        codec = DldcCodec()
        for (w, m), tag, bits, comp in zip(
            rows, tags.tolist(), stream_bits.tolist(), compressed.tolist()
        ):
            if m == 0:
                assert (tag, bits, comp) == (-1, 0, False)
                continue
            encoded = codec._encode_dirty(mask_word(w), m)
            assert bits == encoded.payload_bits
            assert comp == bool(encoded.payload & 1)
            if comp:
                assert tag == (encoded.payload >> 1) & 0b111
            else:
                assert tag == -1

    def test_tie_keeps_lowest_tag(self):
        # A single zero dirty byte matches all-zero (tag 0, 0 bits) and the
        # per-byte sign-extension patterns; the scalar min keeps tag 0.
        tags, bits = vec_dldc_pattern(u64([0]), np.array([0x01], dtype=np.uint8))
        assert tags.tolist() == [0] and bits.tolist() == [0]
        assert dldc_compress_pattern([0]) == (0, 0, 0)
