"""FPC compression tests (repro.encoding.fpc)."""

import pytest
from hypothesis import given, strategies as st

from repro.encoding.fpc import (
    FPC_PATTERNS,
    FPC_PREFIX_PAYLOAD_BITS,
    FpcCodec,
    fpc_compress,
    fpc_decompress,
    fpc_match,
)

words = st.integers(min_value=0, max_value=(1 << 64) - 1)

#: One word per FPC prefix, each matching no smaller pattern.
REPRESENTATIVES = {
    0b000: 0,
    0b001: 7,
    0b010: 0x7F,
    0b011: 0x7FFF,
    0b100: 0x7FFF_FFFF,
    0b101: 0x1234_5678_0000_0000,
    0b110: 0xABAB_ABAB_ABAB_ABAB,
    0b111: 0x0123_4567_89AB_CDEF,
}


class TestPatternMatching:
    def test_zero_word(self):
        assert fpc_match(0) == 0b000

    def test_4bit_sign_extended(self):
        assert fpc_match(7) == 0b001
        assert fpc_match((1 << 64) - 1) == 0b001  # -1

    def test_8bit_sign_extended(self):
        assert fpc_match(0x7F) == 0b010

    def test_16bit_sign_extended(self):
        assert fpc_match(0x7FFF) == 0b011

    def test_32bit_sign_extended(self):
        assert fpc_match(0x7FFF_FFFF) == 0b100

    def test_zero_low_half(self):
        assert fpc_match(0x1234_5678_0000_0000) == 0b101

    def test_repeated_bytes(self):
        assert fpc_match(0xABAB_ABAB_ABAB_ABAB) == 0b110

    def test_uncompressed(self):
        assert fpc_match(0x0123_4567_89AB_CDEF) == 0b111

    def test_repeated_byte_beats_wider_sign_extension(self):
        # 0xFFFF...FF matches both se4 (as -1) and repeated; se4 is smaller.
        assert fpc_match((1 << 64) - 1) == 0b001


class TestRoundtrip:
    @given(words)
    def test_compress_decompress(self, w):
        prefix, payload, bits = fpc_compress(w)
        assert payload < (1 << bits) or bits == 0
        assert fpc_decompress(prefix, payload) == w

    @given(words)
    def test_payload_never_exceeds_word(self, w):
        _prefix, _payload, bits = fpc_compress(w)
        assert 0 <= bits <= 64

    def test_decompress_rejects_wide_payload(self):
        with pytest.raises(ValueError):
            fpc_decompress(0b001, 0x1F)


class TestCodec:
    @given(words)
    def test_codec_roundtrip(self, w):
        codec = FpcCodec()
        encoded = codec.encode(w)
        assert codec.decode(encoded) == w

    def test_zero_word_encodes_to_nothing(self):
        encoded = FpcCodec().encode(0)
        assert encoded.payload_bits == 0
        assert encoded.tag_bits == 3

    def test_sizes_match_pattern_table(self):
        codec = FpcCodec()
        assert set(REPRESENTATIVES) == set(FPC_PATTERNS)
        for prefix, (_name, bits) in FPC_PATTERNS.items():
            word = REPRESENTATIVES[prefix]
            assert fpc_match(word) == prefix
            encoded = codec.encode(word)
            assert encoded.tag_payload == prefix
            assert encoded.payload_bits == bits
            assert FPC_PREFIX_PAYLOAD_BITS[prefix] == bits
            assert codec.decode(encoded) == word

    def test_decode_rejects_foreign_encoding(self):
        from repro.encoding.base import RawCodec

        raw = RawCodec().encode(5)
        with pytest.raises(ValueError):
            FpcCodec().decode(raw)
