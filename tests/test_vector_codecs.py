"""Vectorized encoding kernels are bit-exact against the scalar codecs.

The replay fast path (:mod:`repro.encoding.vector` +
:mod:`repro.replay.prewarm`) batch-classifies a trace's words with numpy
and seeds the PR-4 codec memos with pre-built results.  That is only
sound if every kernel mirrors its scalar reference bit for bit and every
seeded memo entry equals — by :class:`EncodedWord` equality, hook tuples
included — what the scalar compute path would have produced and cached.
These Hypothesis differential tests pin both layers.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.common.bitops import (
    dirty_byte_mask,
    flipped_bits,
    mask_word,
    select_bytes,
)
from repro.encoding import CradeCodec, LogWriteContext, MemoConfig, SldeCodec
from repro.encoding.bdi import bdi_compress, bdi_decompress
from repro.encoding.dldc import DldcCodec, dldc_compress_pattern
from repro.encoding.flipnwrite import FlipNWriteCodec
from repro.encoding.fpc import FPC_PATTERNS, FpcCodec, fpc_decompress, fpc_match
from repro.encoding.vector import (
    BDI_TAG_PAYLOAD_BITS,
    FPC_PREFIX_PAYLOAD_BITS,
    vec_bdi_tag,
    vec_bit_flips,
    vec_dirty_byte_mask,
    vec_dldc_pattern,
    vec_dldc_stream_bits,
    vec_fpc_prefix,
    vec_flipnwrite_flip,
)
from repro.replay.prewarm import _dldc_encoded, _warm_slde

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

#: A tiny memo to keep the prewarm-vs-scalar tests on the eviction path.
SMALL_MEMO = MemoConfig(enabled=True, entries=4096)


def u64(values):
    return np.array(values, dtype=np.uint64)


class TestBitKernels:
    @settings(max_examples=200, deadline=None)
    @given(pair_lists)
    def test_dirty_byte_mask(self, pairs):
        old, new = zip(*pairs)
        got = vec_dirty_byte_mask(u64(old), u64(new))
        assert got.tolist() == [dirty_byte_mask(o, n) for o, n in pairs]

    @settings(max_examples=200, deadline=None)
    @given(pair_lists)
    def test_bit_flips(self, pairs):
        old, new = zip(*pairs)
        got = vec_bit_flips(u64(old), u64(new))
        assert got.tolist() == [flipped_bits(o, n) for o, n in pairs]

    @settings(max_examples=200, deadline=None)
    @given(pair_lists)
    def test_flipnwrite_flip(self, pairs):
        old, new = zip(*pairs)
        got = vec_flipnwrite_flip(u64(old), u64(new))
        codec = FlipNWriteCodec()
        for flip, (o, n) in zip(got.tolist(), pairs):
            encoded = codec.encode(n, o)
            assert flip == bool(encoded.tag_payload)
            assert codec.decode(encoded, o) == mask_word(n)


class TestFpcKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(words, structured), min_size=1, max_size=16))
    def test_prefix_matches_scalar(self, values):
        got = vec_fpc_prefix(u64(values))
        assert got.tolist() == [fpc_match(w) for w in values]

    def test_payload_bits_table_matches_patterns(self):
        for prefix, (_name, bits) in FPC_PATTERNS.items():
            assert FPC_PREFIX_PAYLOAD_BITS[prefix] == bits

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(words, structured), min_size=1, max_size=16))
    def test_small_word_table_boundary(self, values):
        # Words < 256 take the table path; make sure the vector kernel's
        # table overwrite agrees on the boundary and on mixed batches.
        mixed = values + [0, 1, 255, 256, (1 << 64) - 1]
        got = vec_fpc_prefix(u64(mixed))
        assert got.tolist() == [fpc_match(w) for w in mixed]


class TestBdiKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(words, structured), min_size=1, max_size=16))
    def test_tag_matches_scalar(self, values):
        got = vec_bdi_tag(u64(values))
        assert got.tolist() == [bdi_compress(w)[0] for w in values]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(words, structured), min_size=1, max_size=16))
    def test_scalar_roundtrip_and_bits_table(self, values):
        for w in values:
            tag, payload, bits = bdi_compress(w)
            assert bdi_decompress(tag, payload) == mask_word(w)
            assert BDI_TAG_PAYLOAD_BITS[tag] == bits


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


class TestPrewarmBuilders:
    """The prewarm's hand-built EncodedWords equal scalar codec output."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(words, structured), min_size=1, max_size=16))
    def test_fpc_family_matches_codecs(self, values):
        crade = CradeCodec()
        fpc = FpcCodec()
        prefixes = vec_fpc_prefix(u64(values)).tolist()
        for w, prefix in zip(values, prefixes):
            w = mask_word(w)
            built = crade.encode_classified(w, prefix)
            assert built == crade.encode(w)
            assert crade.decode(built) == w
            built = fpc.encode_classified(w, prefix)
            assert built == FpcCodec(expansion_enabled=False).encode(w)
            assert fpc_decompress(built.tag_payload, built.payload) == w
            assert fpc.decode(fpc.encode(w)) == w

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.one_of(words, structured),
                              st.integers(min_value=1, max_value=0xFF)),
                    min_size=1, max_size=16))
    def test_dldc_encoded_matches_encode_dirty(self, rows):
        ws = u64([mask_word(w) for w, _ in rows])
        ms = np.array([m for _, m in rows], dtype=np.uint8)
        tags, stream_bits, _ = vec_dldc_stream_bits(ws, ms)
        codec = DldcCodec()
        for (w, m), tag, bits in zip(rows, tags.tolist(), stream_bits.tolist()):
            w = mask_word(w)
            built = _dldc_encoded(w, m, tag, bits)
            expected = codec._encode_dirty(w, m)
            assert built == expected
            # Round-trip through an arbitrary base word for clean bytes.
            base = mask_word(~w)
            assert codec.decode(built, base) == codec.decode(expected, base)


def warmed_slde(rows):
    """A memoized SLDE with its memos seeded exactly as replay would."""
    slde = SldeCodec(memo=SMALL_MEMO)
    ws = u64([mask_word(w) for w, _ in rows])
    ms = np.array([m for _, m in rows], dtype=np.uint8)
    counts = _warm_slde(slde, ws, ms)
    assert counts["slde_seeded"] == len(rows)
    return slde


class TestPrewarmedSlde:
    """Seeded decision memos replay the scalar path bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.one_of(words, structured), masks),
                    min_size=1, max_size=12),
           words)
    def test_encode_log_equal_including_hooks(self, rows, old):
        plain = SldeCodec()
        warmed = warmed_slde(rows)
        streams = ([], [])
        plain.decision_hook = lambda *args: streams[0].append(args)
        warmed.decision_hook = lambda *args: streams[1].append(args)
        for w, m in rows:
            ctx = LogWriteContext(old_word=old, dirty_mask=m)
            expected = plain.encode_log(w, ctx)
            got = warmed.encode_log(w, ctx)
            assert got == expected
            assert got.total_bits == expected.total_bits
            if not got.silent:
                assert warmed.decode(got, old) == plain.decode(expected, old)
        assert streams[0] == streams[1]
        # Every encode above must have been a seeded-memo hit.
        assert warmed._log_memo.hits == len(rows)
        assert warmed._log_memo.misses == 0

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(words, words), min_size=1, max_size=10))
    def test_pair_encoding_equal_including_conflicts(self, pairs):
        rows = []
        for undo, redo in pairs:
            mask = dirty_byte_mask(undo, redo)
            rows.append((undo, mask))
            rows.append((redo, mask))
        plain = SldeCodec()
        warmed = warmed_slde(rows)
        streams = ([], [])
        plain.decision_hook = lambda *args: streams[0].append(args)
        warmed.decision_hook = lambda *args: streams[1].append(args)
        for undo, redo in pairs:
            mask = dirty_byte_mask(undo, redo)
            assert warmed.encode_undo_redo_pair(undo, redo, mask) == \
                plain.encode_undo_redo_pair(undo, redo, mask)
        assert streams[0] == streams[1]

    def test_pair_conflict_fallback_corner(self):
        # Both sides pick DLDC (the PR-4 corner): undo's dirty byte is
        # zero (all-zero pattern, 12 bits total), redo's fits 2-bit SE
        # (14 bits total); both beat CRADE's 69-bit uncompressed form.
        # Undo saves more, so the redo side must fall back to the CRADE
        # candidate — through the seeded memo exactly as computed.
        undo = 0xAAAA_BBBB_CCCC_DD00
        redo = 0xAAAA_BBBB_CCCC_DD01
        mask = dirty_byte_mask(undo, redo)
        assert mask == 0x01
        plain = SldeCodec()
        warmed = warmed_slde([(undo, mask), (redo, mask)])
        undo_enc, redo_enc = warmed.encode_undo_redo_pair(undo, redo, mask)
        assert (undo_enc, redo_enc) == plain.encode_undo_redo_pair(
            undo, redo, mask
        )
        assert undo_enc.method == "dldc"
        assert redo_enc.method == "crade"  # the conflict loser fell back
        # The per-side decisions came from the seeded memo.
        assert warmed._log_memo.hits == 2
        assert warmed._log_memo.misses == 0

    def test_silent_rows_seed_the_silent_singleton(self):
        warmed = warmed_slde([(0x1234, 0x00)])
        hooks = []
        warmed.decision_hook = lambda *args: hooks.append(args)
        got = warmed.encode_log(0x1234, LogWriteContext(old_word=0x1234,
                                                        dirty_mask=0))
        assert got.silent and got.total_bits == 0
        assert got == SldeCodec().encode_log(
            0x1234, LogWriteContext(old_word=0x1234, dirty_mask=0)
        )
        assert hooks == [(0x1234, "dldc", 0, "crade", 21, True)]
        assert warmed._log_memo.hits == 1

    def test_warm_slde_skips_unwarmable_configs(self):
        # No memo: nothing to seed.
        plain = SldeCodec()
        counts = _warm_slde(plain, u64([1]), np.array([1], dtype=np.uint8))
        assert counts == {"slde_seeded": 0}
        # Context-sensitive alternative: the memo key needs the old word,
        # which the prewarm cannot predict.
        fnw = SldeCodec(alternative=FlipNWriteCodec(), memo=SMALL_MEMO)
        counts = _warm_slde(fnw, u64([1]), np.array([1], dtype=np.uint8))
        assert counts == {"slde_seeded": 0}
