"""DLDC tests: the Table II patterns and the log-data codec.

The codec searches the patterns on the dirty bytes packed into one int,
with lane arithmetic.  The per-byte list search and stream build it
replaced are kept below as the reference the packed path must equal,
with their own per-byte tables and pattern costs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.bitops import (
    WORD_BYTES,
    bytes_to_word,
    dirty_byte_mask,
    fits_signed,
    select_bytes,
)
from repro.encoding.base import EncodedWord
from repro.encoding.crade import CradeCodec
from repro.encoding.dldc import (
    DLDC_HEADER_BITS,
    DLDC_PATTERN_BITS,
    DLDC_TAG_BITS,
    DldcCodec,
    DldcEncoding,
    dldc_compress_pattern,
    dldc_decompress_pattern,
)
from repro.encoding.expansion import ExpansionPolicy, policy_for_size

words = st.integers(min_value=0, max_value=(1 << 64) - 1)
byte_strings = st.lists(
    st.integers(min_value=0, max_value=0xFF), min_size=1, max_size=8
)


class TestTableIIExamples:
    """The worked examples straight from the paper's Table II."""

    def test_all_zero(self):
        tag, payload, bits = dldc_compress_pattern([0, 0, 0, 0])
        assert (tag, payload, bits) == (0b000, 0, 0)

    def test_2bit_sign_extended_per_byte(self):
        # 0x01F20101 bytes (LE): 01 01 F2 01 -- each fits 2 signed bits?
        # 0xF2 does not; use a clean example: 01 FE 01 01.
        data = [0x01, 0xFE, 0x01, 0x01]
        tag, _payload, bits = dldc_compress_pattern(data)
        assert tag == 0b001
        assert bits == 8

    def test_4bit_sign_extended_per_byte(self):
        # Paper example 0x03F905FE -> 0x2395E (tag 010).
        data = [0xFE, 0x05, 0xF9, 0x03]
        tag, payload, bits = dldc_compress_pattern(data)
        assert tag == 0b010
        assert bits == 16
        assert payload == 0x395E

    def test_1byte_sign_extended(self):
        # Paper example 0xFFFFFF80 -> 0x380 (tag 011).
        data = [0x80, 0xFF, 0xFF, 0xFF]
        tag, payload, bits = dldc_compress_pattern(data)
        assert tag == 0b011
        assert payload == 0x80
        assert bits == 8

    def test_2byte_sign_extended(self):
        # Paper example 0x00007FFF -> tag 100.
        data = [0xFF, 0x7F, 0x00, 0x00]
        tag, payload, bits = dldc_compress_pattern(data)
        assert tag == 0b100
        assert payload == 0x7FFF
        assert bits == 16

    def test_4byte_sign_extended(self):
        # Paper example 0xFF80000000 -> tag 101.
        data = [0x00, 0x00, 0x00, 0x80, 0xFF]
        tag, payload, bits = dldc_compress_pattern(data)
        assert tag == 0b101
        assert payload == 0x80000000
        assert bits == 32

    def test_4bit_zero_padded(self):
        # Paper example 0x10203040 -> 0x61234 (tag 110).
        data = [0x40, 0x30, 0x20, 0x10]
        tag, payload, bits = dldc_compress_pattern(data)
        assert tag == 0b110
        assert bits == 16
        assert payload == 0x1234

    def test_zero_low_byte(self):
        # Paper example 0x1234567800 -> tag 111, 5-bit size reduction.
        data = [0x00, 0x78, 0x56, 0x34, 0x12]
        tag, payload, bits = dldc_compress_pattern(data)
        assert tag == 0b111
        assert payload == 0x12345678
        assert bits == 32

    def test_unmatchable_returns_none(self):
        assert dldc_compress_pattern([0x5A, 0xC3, 0x97, 0x1D]) is None


class TestPatternRoundtrip:
    @given(byte_strings)
    def test_roundtrip_when_compressible(self, data):
        match = dldc_compress_pattern(data)
        if match is None:
            return
        tag, payload, _bits = match
        assert dldc_decompress_pattern(tag, payload, len(data)) == data

    def test_decompress_rejects_bad_tag(self):
        with pytest.raises(ValueError):
            dldc_decompress_pattern(8, 0, 4)

    @given(byte_strings)
    def test_compressed_size_smaller(self, data):
        match = dldc_compress_pattern(data)
        if match is not None:
            _tag, _payload, bits = match
            assert bits <= 8 * len(data)


class TestDldcCodec:
    @given(words, words)
    def test_encode_decode_against_base(self, old, new):
        codec = DldcCodec()
        mask = dirty_byte_mask(old, new)
        encoded = codec.encode_log(new, mask)
        if encoded.silent:
            assert old == new
            assert codec.decode(encoded, old) == old
        else:
            assert codec.decode(encoded, old) == new

    def test_silent_entry_writes_nothing(self):
        encoded = DldcCodec().encode_log(0x42, 0)
        assert encoded.silent
        assert encoded.total_bits == 0

    def test_dirty_flag_charged_as_tag_bits(self):
        encoded = DldcCodec().encode_log(0xFF, 0b1)
        assert encoded.tag_bits == 8

    def test_plain_encode_rejected(self):
        with pytest.raises(TypeError):
            DldcCodec().encode(0x1)

    def test_bad_mask_rejected(self):
        with pytest.raises(ValueError):
            DldcCodec().encode_log(0, 0x100)

    def test_decode_needs_base_word(self):
        codec = DldcCodec()
        encoded = codec.encode_log(0xFF, 0b1)
        with pytest.raises(ValueError):
            codec.decode(encoded, None)

    @given(words, words)
    def test_encoded_size_at_most_dirty_bytes_plus_header(self, old, new):
        mask = dirty_byte_mask(old, new)
        encoded = DldcCodec().encode_log(new, mask)
        if not encoded.silent:
            dirty = bin(mask).count("1")
            assert encoded.payload_bits <= 1 + 8 * dirty

    def test_single_dirty_byte_beats_full_word(self):
        old, new = 0, 0x42
        encoded = DldcCodec().encode_log(new, dirty_byte_mask(old, new))
        assert encoded.total_bits < 64


class TestParse:
    @pytest.mark.parametrize("word", [0x1234, 0x1_2345_6789])
    def test_rejects_another_codecs_encoding(self, word):
        with pytest.raises(ValueError, match="not a DLDC encoding: 'crade'"):
            DldcCodec().parse(CradeCodec().encode(word))

    def test_rejects_an_encoding_without_its_dirty_mask(self):
        lost = EncodedWord("dldc", 0b0010, 4, 8, ExpansionPolicy.EXPAND1)
        with pytest.raises(ValueError, match="DLDC encoding lost its dirty mask"):
            DldcCodec().parse(lost)

    def test_silent_entry_parses_empty(self):
        codec = DldcCodec()
        assert codec.parse(codec.encode_log(0x42, 0)) == DldcEncoding(
            0, False, None, []
        )


# ---------------------------------------------------------------------------
# The per-byte list search and stream build, as the reference
# ---------------------------------------------------------------------------

# The reference's own per-byte predicates and costs: it reads no table
# from the codec it checks.
BYTE_FITS_SE2 = tuple(fits_signed(b, 2, 8) for b in range(256))
BYTE_FITS_SE4 = tuple(fits_signed(b, 4, 8) for b in range(256))
BYTE_LOW_NIBBLE_ZERO = tuple(b & 0x0F == 0 for b in range(256))


def reference_pattern_bits(tag, k):
    """Table II's payload bits on a ``k``-byte string, None if undefined."""
    return {
        0b000: 0,
        0b001: 2 * k,
        0b010: 4 * k,
        0b011: 8 if k > 1 else None,
        0b100: 16 if k > 2 else None,
        0b101: 32 if k > 4 else None,
        0b110: 4 * k,
        0b111: 8 * (k - 1) if k > 1 else None,
    }[tag]


def reference_pattern_payload(tag, data, value):
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


def reference_compress_pattern(data):
    k = len(data)
    n_bits = 8 * k
    value = bytes_to_word(data)
    if value == 0:
        return 0b000, 0, 0
    best_tag = -1
    best_bits = 1 << 30
    if all(BYTE_FITS_SE2[b] for b in data):
        best_tag, best_bits = 0b001, reference_pattern_bits(0b001, k)
    bits = reference_pattern_bits(0b010, k)
    if bits < best_bits and all(BYTE_FITS_SE4[b] for b in data):
        best_tag, best_bits = 0b010, bits
    for tag, from_bits in ((0b011, 8), (0b100, 16), (0b101, 32)):
        bits = reference_pattern_bits(tag, k)
        if bits is not None and bits < best_bits and fits_signed(
            value, from_bits, n_bits
        ):
            best_tag, best_bits = tag, bits
    bits = reference_pattern_bits(0b110, k)
    if bits < best_bits and all(BYTE_LOW_NIBBLE_ZERO[b] for b in data):
        best_tag, best_bits = 0b110, bits
    bits = reference_pattern_bits(0b111, k)
    if bits is not None and bits < best_bits and data[0] == 0:
        best_tag, best_bits = 0b111, bits
    if best_tag < 0:
        return None
    return best_tag, reference_pattern_payload(best_tag, data, value), best_bits


def reference_encode_dirty(word, dirty_mask):
    dirty = select_bytes(word, dirty_mask)
    k = len(dirty)
    match = reference_compress_pattern(dirty)
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
        method="dldc",
        payload=stream,
        payload_bits=stream_bits,
        tag_bits=WORD_BYTES,
        policy=policy_for_size(stream_bits),
        dirty_mask=dirty_mask,
    )


#: Bytes at the edges of the Table II patterns, so every tag wins
#: somewhere and ties between equal-cost patterns come up.
PATTERN_BYTES = (0x00, 0x01, 0x02, 0x0C, 0x7F, 0x80, 0xF0, 0xFE, 0xFF)
biased_bytes = st.one_of(st.sampled_from(PATTERN_BYTES), st.integers(0, 0xFF))
biased_words = st.lists(biased_bytes, min_size=8, max_size=8).map(bytes_to_word)
dirty_masks = st.integers(1, 0xFF)


class TestPackedSearchEqualsReference:
    @settings(max_examples=2000, deadline=None)
    @given(st.lists(biased_bytes, min_size=1, max_size=8))
    def test_compress_pattern(self, data):
        assert dldc_compress_pattern(data) == reference_compress_pattern(data)

    @settings(max_examples=2000, deadline=None)
    @given(biased_words, dirty_masks)
    def test_encode_dirty_and_encode_log(self, word, mask):
        expected = reference_encode_dirty(word, mask)
        codec = DldcCodec()
        assert codec._encode_dirty(word, mask) == expected
        assert codec.encode_log(word, mask) == expected

    def test_every_byte_in_every_lane(self):
        # Each lane test on its own: one byte value in one lane of a
        # string of zeros, and the same byte in every lane.
        for k in range(1, WORD_BYTES + 1):
            for b in range(0x100):
                strings = [[b] * k] + [
                    [0] * j + [b] + [0] * (k - j - 1) for j in range(k)
                ]
                for data in strings:
                    assert dldc_compress_pattern(data) == reference_compress_pattern(
                        data
                    ), data

    def test_every_mask(self):
        codec = DldcCodec()
        tags = set()
        for mask in range(1, 0x100):
            for word in (
                0x0102_0C7F_80F0_FEFF,
                0xFF80_7F0C_0201_00FE,
                0x00F0_0001_FFFE_0C80,
                0x0000_0100_00FF_FE01,
            ):
                expected = reference_encode_dirty(word, mask)
                assert codec.encode_log(word, mask) == expected, (hex(word), mask)
                match = reference_compress_pattern(select_bytes(word, mask))
                tags.add(match and match[0])
        assert tags == {None, 0, 1, 2, 3, 4, 5, 6, 7}

    def test_tie_keeps_lowest_tag(self):
        # 2-bit sign extension per byte and a 1-byte sign-extended value
        # both cost 8 bits on a 4-byte string; the lower tag wins.
        assert dldc_compress_pattern([0x01, 0, 0, 0]) == (0b001, 0b01, 8)
        assert reference_compress_pattern([0x01, 0, 0, 0]) == (0b001, 0b01, 8)

    def test_pattern_costs_match_table_ii(self):
        for tag, costs in DLDC_PATTERN_BITS.items():
            assert costs[0] is None
            for k in range(1, WORD_BYTES + 1):
                assert costs[k] == reference_pattern_bits(tag, k), (tag, k)

    def test_every_pattern_beats_the_raw_bytes(self):
        # _encode_dirty keeps any match without a size check: each
        # defined pattern, with its tag, must stay below the k raw bytes.
        for tag, costs in DLDC_PATTERN_BITS.items():
            for k in range(1, WORD_BYTES + 1):
                if costs[k] is not None:
                    assert costs[k] + DLDC_TAG_BITS < 8 * k, (tag, k)
