"""SLDE selection logic, CRADE and Flip-N-Write tests."""

import pytest
from hypothesis import given, strategies as st

from repro.common.bitops import WORD_MASK, dirty_byte_mask, flipped_bits
from repro.encoding.base import EncodedWord, RawCodec, WordCodec
from repro.encoding.crade import CradeCodec
from repro.encoding.expansion import ExpansionPolicy
from repro.encoding.flipnwrite import FlipNWriteCodec
from repro.encoding.slde import ENCODING_TYPE_FLAG_BITS, LogWriteContext, SldeCodec
from repro.encoding import make_codec

words = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestCrade:
    @given(words)
    def test_roundtrip(self, w):
        codec = CradeCodec()
        assert codec.decode(codec.encode(w)) == w

    def test_compressible_word_expands(self):
        from repro.encoding.expansion import ExpansionPolicy

        encoded = CradeCodec().encode(0x7F)  # 8-bit payload
        assert encoded.policy is ExpansionPolicy.EXPAND1

    def test_incompressible_word_raw(self):
        from repro.encoding.expansion import ExpansionPolicy

        encoded = CradeCodec().encode(0x0123_4567_89AB_CDEF)
        assert encoded.policy is ExpansionPolicy.RAW

    def test_expansion_disabled(self):
        from repro.encoding.expansion import ExpansionPolicy

        encoded = CradeCodec(expansion_enabled=False).encode(0x7F)
        assert encoded.policy is ExpansionPolicy.RAW


class TestFlipNWrite:
    @given(words, words)
    def test_roundtrip(self, w, old):
        codec = FlipNWriteCodec()
        assert codec.decode(codec.encode(w, old), old) == w

    @given(words, words)
    def test_never_flips_more_than_half(self, w, old):
        codec = FlipNWriteCodec()
        encoded = codec.encode(w, old)
        stored = encoded.payload
        assert flipped_bits(old, stored) <= max(
            flipped_bits(old, w), flipped_bits(old, w ^ WORD_MASK)
        )

    def test_flips_when_beneficial(self):
        old = 0
        new = WORD_MASK  # flipping all 64 bits; inverse flips none
        encoded = FlipNWriteCodec().encode(new, old)
        assert encoded.tag_payload == 1
        assert encoded.payload == 0


class TestSldeSelection:
    def test_silent_log_write_dropped(self):
        slde = SldeCodec()
        ctx = LogWriteContext(old_word=5, dirty_mask=0)
        assert slde.encode_log(5, ctx).silent

    def test_dldc_wins_on_sparse_diff(self):
        slde = SldeCodec()
        old = 0x1111_1111_1111_1111
        new = 0x1111_1111_1111_1119  # one dirty byte, incompressible by FPC
        ctx = LogWriteContext(old_word=old, dirty_mask=dirty_byte_mask(old, new))
        assert slde.encode_log(new, ctx).method == "dldc"

    def test_alternative_wins_on_compressible_word(self):
        slde = SldeCodec()
        old = 0xFFFF_FFFF_FFFF_FFFF
        new = 0  # all bytes dirty, but FPC compresses zero to nothing
        ctx = LogWriteContext(old_word=old, dirty_mask=0xFF)
        assert slde.encode_log(new, ctx).method == "crade"

    def test_dldc_disallowed_falls_back(self):
        slde = SldeCodec()
        old = 0x1111_1111_1111_1111
        new = 0x1111_1111_1111_1119
        ctx = LogWriteContext(
            old_word=old, dirty_mask=dirty_byte_mask(old, new), allow_dldc=False
        )
        assert slde.encode_log(new, ctx).method == "crade"

    @given(words, words)
    def test_selected_encoding_decodes(self, old, new):
        slde = SldeCodec()
        ctx = LogWriteContext(old_word=old, dirty_mask=dirty_byte_mask(old, new))
        encoded = slde.encode_log(new, ctx)
        if encoded.silent:
            assert old == new
        else:
            assert slde.decode(encoded, old) == new

    @given(words, words)
    def test_selection_is_cost_minimal(self, old, new):
        slde = SldeCodec()
        mask = dirty_byte_mask(old, new)
        if mask == 0:
            return
        encoded = slde.encode_log(new, LogWriteContext(old_word=old, dirty_mask=mask))
        alt = slde.alternative.encode(new)
        dldc = slde.dldc.encode_log(new, mask)
        best = min(alt.total_bits, dldc.total_bits)
        assert encoded.total_bits <= best + ENCODING_TYPE_FLAG_BITS


class TestUndoRedoPairRule:
    """The paper never DLDC-compresses both sides of one entry (IV-B)."""

    @given(words, words)
    def test_never_both_dldc(self, undo, redo):
        slde = SldeCodec()
        mask = dirty_byte_mask(undo, redo)
        undo_enc, redo_enc = slde.encode_undo_redo_pair(undo, redo, mask)
        if not (undo_enc.silent or redo_enc.silent):
            assert not (undo_enc.method == "dldc" and redo_enc.method == "dldc")

    @given(words, words)
    def test_pair_decodes_against_each_other(self, undo, redo):
        slde = SldeCodec()
        mask = dirty_byte_mask(undo, redo)
        undo_enc, redo_enc = slde.encode_undo_redo_pair(undo, redo, mask)
        if not undo_enc.silent:
            assert slde.decode(undo_enc, redo) == undo
        if not redo_enc.silent:
            assert slde.decode(redo_enc, undo) == redo


class StubDeltaCodec(WordCodec):
    """Old-word-sensitive alternative for conflict-path regression tests.

    Encoding with an old word costs 18 bits; without one the codec has no
    delta base and must store all 64 bits.  The gap makes it observable
    whether the pair conflict path re-encodes with or without context.
    """

    name = "stub-delta"
    context_free = False

    def encode(self, word, old_word=None):
        bits = 18 if old_word is not None else 64
        return EncodedWord(
            method=self.name,
            payload=0,
            payload_bits=bits,
            tag_bits=0,
            policy=ExpansionPolicy.RAW,
        )


class TestPairConflictContext:
    """The conflict fallback must reuse the context-aware alternative.

    Regression for a bug where ``encode_undo_redo_pair`` resolved a
    DLDC/DLDC conflict by re-encoding with ``alternative.encode(word)``
    *without* the old word, so the fallback side could get a different
    (worse) encoding than the candidate whose cost the comparator saw.
    """

    # One dirty byte, incompressible by the Table II patterns: DLDC costs
    # 1 (header) + 8 (raw byte) payload + 8 (dirty flag) = 17 total bits.
    UNDO = 0x1111_1111_1111_1111
    REDO = 0x1111_1111_1111_1119

    def test_both_sides_prefer_dldc_standalone(self):
        slde = SldeCodec(alternative=StubDeltaCodec())
        mask = dirty_byte_mask(self.UNDO, self.REDO)
        undo_ctx = LogWriteContext(old_word=self.REDO, dirty_mask=mask)
        redo_ctx = LogWriteContext(old_word=self.UNDO, dirty_mask=mask)
        assert slde.encode_log(self.UNDO, undo_ctx).method == "dldc"
        assert slde.encode_log(self.REDO, redo_ctx).method == "dldc"

    def test_conflict_fallback_keeps_context_bit_cost(self):
        slde = SldeCodec(alternative=StubDeltaCodec())
        mask = dirty_byte_mask(self.UNDO, self.REDO)
        undo_enc, redo_enc = slde.encode_undo_redo_pair(self.UNDO, self.REDO, mask)
        # Equal savings on both sides: the undo side falls back.
        assert redo_enc.method == "dldc"
        assert undo_enc.method == "stub-delta"
        # The fallback is the 18-bit context-aware candidate the comparator
        # costed, not a fresh 64-bit context-free re-encode.
        assert undo_enc.total_bits == 18

    def test_conflict_fallback_flip_decision_uses_old_word(self):
        # Same regression observed through a real codec: Flip-N-Write's
        # payload depends on the old word, so a context-free re-encode
        # produces different bits than the costed candidate.
        slde = SldeCodec(alternative=FlipNWriteCodec())
        undo, redo = 0x0000_0000_0000_00FF, 0xFFFF_FFFF_FFFF_FF00
        undo_enc, redo_enc = slde.encode_undo_redo_pair(undo, redo, 0xFF)
        assert redo_enc.method == "dldc"
        assert undo_enc.method == "flip-n-write"
        # Against old word ``redo`` all 64 bits differ, so the costed
        # candidate flips; without the old word nothing would flip.
        assert undo_enc.tag_payload == 1
        assert undo_enc.payload == undo ^ WORD_MASK


class TestEncodingTypeFlagCharging:
    """ENCODING_TYPE_FLAG_BITS is comparison-only, never double-charged.

    The paper charges the encoding type flag to *both* candidates inside
    the size comparator (so the choice is fair) but the flag's cells live
    inside the per-word tag-cell group; Table VI write-traffic sums must
    therefore see each word's ``total_bits`` exactly once, with no extra
    flag bits layered on top.
    """

    def test_chosen_encoding_carries_no_flag_surcharge(self):
        slde = SldeCodec()
        old, new = 0x1111_1111_1111_1111, 0x1111_1111_1111_1119
        mask = dirty_byte_mask(old, new)
        chosen = slde.encode_log(new, LogWriteContext(old_word=old, dirty_mask=mask))
        standalone = slde.dldc.encode_log(new, mask)
        assert chosen == standalone
        assert chosen.total_bits == chosen.payload_bits + chosen.tag_bits

    def test_comparison_is_fair_because_flag_hits_both_sides(self):
        # The flag cancels out of the comparison: the winner is exactly
        # the candidate with the smaller unflagged total.
        slde = SldeCodec()
        old, new = 0x1111_1111_1111_1111, 0x1111_1111_1111_1119
        mask = dirty_byte_mask(old, new)
        chosen = slde.encode_log(new, LogWriteContext(old_word=old, dirty_mask=mask))
        alt = slde.alternative.encode(new, old)
        dldc = slde.dldc.encode_log(new, mask)
        expected = dldc if dldc.total_bits < alt.total_bits else alt
        assert chosen == expected

    def test_nvm_traffic_charges_total_bits_exactly_once(self):
        from repro.common.config import EncodingConfig, NVMConfig
        from repro.common.stats import StatGroup
        from repro.nvm.module import NvmModule

        module = NvmModule(NVMConfig(), EncodingConfig(), StatGroup("t"))
        old, new = 0x1111_1111_1111_1111, 0x1111_1111_1111_1119
        module.write_log_entry(
            0x100, [0xAA, 0xBB], 0.0,
            undo=old, redo=new, dirty_mask=dirty_byte_mask(old, new),
        )
        # The encodings the entry stored, one per word.
        stored = [module.array.read_word(0x100 + 8 * i).encoded for i in range(4)]
        assert None not in stored
        booked = module.stats.get("log_bits")
        assert booked == sum(e.total_bits for e in stored)
        # And the flag surcharge stayed out of the booked traffic.
        non_silent = [e for e in stored if not e.silent]
        assert booked < sum(
            e.total_bits + ENCODING_TYPE_FLAG_BITS for e in non_silent
        ) or not non_silent


class TestCodecFactory:
    @pytest.mark.parametrize(
        "name,cls_name",
        [
            ("raw", "RawCodec"),
            ("fpc", "FpcCodec"),
            ("crade", "CradeCodec"),
            ("flip-n-write", "FlipNWriteCodec"),
            ("slde", "SldeCodec"),
        ],
    )
    def test_known_names(self, name, cls_name):
        assert type(make_codec(name)).__name__ == cls_name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_codec("zstd")
