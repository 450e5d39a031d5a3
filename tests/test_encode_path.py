"""The log-entry encode path is bit-exact against per-byte references.

:func:`repro.encoding.fpc.fpc_match` classifies words by arithmetic (a
word fits *n* signed bits iff ``(word + 2**(n-1)) & WORD_MASK < 2**n``;
it repeats one byte iff it equals its low byte times 0x0101...01) and
:func:`repro.common.bitops.dirty_byte_mask` folds and gathers its bytes
with one multiply.  The references below are the ``fits_signed`` /
``word_bytes`` / byte-loop forms those replaced, kept only here.

Also pinned here: the per-write value classes stay frozen, picklable and
dict-free under ``slots=True``, and their slot-filling ``__init__`` takes
the dataclass's parameters, stores every field and validates as the
generated one did; a memoizing codec classifies a repeated
word once, and again after ``clear_memos()``; and an encoding whose
payload does not fit its declared width is refused even when that width
is zero.
"""

import inspect
import pickle
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.encoding.bdi as bdi_mod
import repro.encoding.fpc as fpc_mod
from repro.common.bitops import (
    WORD_BYTES,
    WORD_MASK,
    dirty_byte_mask,
    fits_signed,
    mask_word,
    word_bytes,
)
from repro.common.config import EncodingConfig, NVMConfig
from repro.encoding.base import EncodedWord
from repro.encoding.expansion import ExpansionPolicy, map_bits_to_cells
from repro.encoding.fpc import FPC_PATTERNS, fpc_compress, fpc_match
from repro.encoding.slde import LogWriteContext
from repro.logging_hw.buffers import BufferedEntry
from repro.logging_hw.entries import CommitRecord, EntryType, LogEntry
from repro.logging_hw.region import LiveEntry
from repro.nvm.array import NvmArray, WriteCost
from repro.nvm.module import NvmModule
from repro.nvm.timing import WriteSchedule


# ---------------------------------------------------------------------------
# Per-byte references
# ---------------------------------------------------------------------------

def reference_fpc_match(word: int) -> int:
    word = mask_word(word)
    if word == 0:
        return 0b000
    if fits_signed(word, 4):
        return 0b001
    byte_list = word_bytes(word)
    if all(b == byte_list[0] for b in byte_list):
        return 0b110
    if fits_signed(word, 8):
        return 0b010
    if fits_signed(word, 16):
        return 0b011
    if fits_signed(word, 32):
        return 0b100
    if word & 0xFFFF_FFFF == 0:
        return 0b101
    return 0b111


def reference_fpc_compress(word: int):
    word = mask_word(word)
    prefix = reference_fpc_match(word)
    _name, bits = FPC_PATTERNS[prefix]
    if prefix == 0b000:
        payload = 0
    elif prefix in (0b001, 0b010, 0b011, 0b100):
        payload = word & ((1 << bits) - 1)
    elif prefix == 0b101:
        payload = word >> 32
    elif prefix == 0b110:
        payload = word & 0xFF
    else:
        payload = word
    return prefix, payload, bits


def reference_dirty_byte_mask(old: int, new: int) -> int:
    diff = (old ^ new) & WORD_MASK
    mask = 0
    for i in range(WORD_BYTES):
        if diff & (0xFF << (8 * i)):
            mask |= 1 << i
    return mask


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: Words within a few units of +-2**(n-1), the edges of each
#: sign-extension pattern, and of the pattern widths themselves.
near_sign_edges = st.builds(
    lambda n, sign, delta: mask_word(sign * (1 << (n - 1)) + delta),
    st.sampled_from((4, 8, 16, 32)),
    st.sampled_from((1, -1)),
    st.integers(-4, 4),
)
repeated_bytes = st.builds(
    lambda b, lane, flip: mask_word(b * 0x0101_0101_0101_0101 ^ (flip << 8 * lane)),
    st.integers(0, 0xFF),
    st.integers(0, 7),
    st.sampled_from((0, 0, 1, 0x80)),
)
zero_low_half = st.integers(0, (1 << 32) - 1).map(lambda v: v << 32)
random_width = st.integers(0, 64).flatmap(
    lambda width: st.integers(0, (1 << width) - 1)
).flatmap(lambda v: st.sampled_from((v, mask_word(-v))))
fpc_words = st.one_of(
    near_sign_edges, repeated_bytes, zero_low_half, random_width,
    st.integers(0, WORD_MASK),
)

#: Word pairs differing in a random subset of bytes.
byte_diffs = st.lists(
    st.tuples(st.integers(0, 7), st.integers(1, 0xFF)), max_size=8
).map(lambda changes: sum(b << 8 * i for i, b in dict(changes).items()))


class TestFpcClassifier:
    @settings(max_examples=2000, deadline=None)
    @given(fpc_words)
    def test_match_equals_reference(self, word):
        assert fpc_match(word) == reference_fpc_match(word)

    @settings(max_examples=2000, deadline=None)
    @given(fpc_words)
    def test_compress_equals_reference(self, word):
        assert fpc_compress(word) == reference_fpc_compress(word)

    def test_every_small_word(self):
        # Words below 256 take FPC_SMALL_WORD_PREFIX; 256 the arithmetic.
        for word in range(257):
            assert fpc_match(word) == reference_fpc_match(word), word

    def test_every_sign_edge(self):
        for n in (4, 8, 16, 32, 64):
            for sign in (1, -1):
                for delta in range(-4, 5):
                    word = mask_word(sign * (1 << (n - 1)) + delta)
                    assert fpc_compress(word) == reference_fpc_compress(word)

    def test_unmasked_inputs(self):
        for word in (-1, -129, 1 << 64, (1 << 70) + 5):
            assert fpc_compress(word) == reference_fpc_compress(word)


class TestDirtyByteMask:
    @settings(max_examples=1000, deadline=None)
    @given(st.integers(0, WORD_MASK), byte_diffs)
    def test_equals_byte_loop(self, old, diff):
        assert dirty_byte_mask(old, old ^ diff) == reference_dirty_byte_mask(
            old, old ^ diff
        )

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(1 << 70), 1 << 70), st.integers(-(1 << 70), 1 << 70))
    def test_unmasked_inputs(self, old, new):
        assert dirty_byte_mask(old, new) == reference_dirty_byte_mask(old, new)

    def test_single_bits(self):
        for bit in range(64):
            assert dirty_byte_mask(0, 1 << bit) == 1 << bit // 8


# ---------------------------------------------------------------------------
# Slotted per-write value classes
# ---------------------------------------------------------------------------

ENCODED = EncodedWord("crade", 0x7F, 8, 5, ExpansionPolicy.EXPAND1, 0b010)
SCHEDULE = WriteSchedule(10.0, 25.5, 0.0)
COST = WriteCost(3, 13, 15.5, 60.25, False)
ENTRY = LogEntry(EntryType.UNDO_REDO, 1, 7, 0x40, 0xAB, 0xCD, 0x0F)

FROZEN_SLOTTED = [
    ENCODED,
    ENTRY,
    CommitRecord(1, 7, 2, 99),
    LogWriteContext(0xCD, 0x01, False),
    COST,
    SCHEDULE,
]
MUTABLE_SLOTTED = [
    LiveEntry(8, 4, EntryType.UNDO_REDO, 1, 7, 3),
    BufferedEntry(ENTRY, 12.5),
]


def _ids(objects):
    return [type(obj).__name__ for obj in objects]


@pytest.mark.parametrize("obj", FROZEN_SLOTTED, ids=_ids(FROZEN_SLOTTED))
class TestFrozenSlotted:
    def test_assignment_raises(self, obj):
        name = fields(obj)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))

    def test_pickle_round_trip(self, obj):
        assert pickle.loads(pickle.dumps(obj)) == obj

    def test_positional_and_keyword_construction(self, obj):
        names = [f.name for f in fields(obj)]
        values = [getattr(obj, name) for name in names]
        # Distinct values, so a field stored into another's slot shows.
        assert len(set(map(repr, values))) == len(values)
        cls = type(obj)
        positional = cls(*values)
        keyword = cls(**dict(zip(names, values)))
        assert positional == keyword == obj
        for built in (positional, keyword):
            assert [getattr(built, name) for name in names] == values

    def test_init_parameters_match_fields(self, obj):
        params = list(inspect.signature(type(obj).__init__).parameters.values())
        assert params[0].name == "self"
        assert [(p.name, p.default) for p in params[1:]] == [
            (f.name, inspect.Parameter.empty if f.default is MISSING else f.default)
            for f in fields(obj)
        ]


@pytest.mark.parametrize(
    "obj", FROZEN_SLOTTED + MUTABLE_SLOTTED,
    ids=_ids(FROZEN_SLOTTED + MUTABLE_SLOTTED),
)
def test_no_instance_dict(obj):
    # Every written NVM slot keeps its EncodedWord; an instance dict
    # makes each one half again as large.
    assert not hasattr(obj, "__dict__")


P1 = ExpansionPolicy.EXPAND1


@pytest.mark.parametrize("args,message", [
    (("crade", 1, -1, 0, P1), "bit counts cannot be negative"),
    (("crade", 1, 8, -1, P1), "bit counts cannot be negative"),
    (("crade", -1, -1, 0, P1), "bit counts cannot be negative"),
    (("crade", -1, 8, 0, P1), "payload must be unsigned"),
    (("crade", 0x100, 8, 0, P1), "payload wider than payload_bits"),
    (("crade", 5, 0, 5, P1), "payload wider than payload_bits"),
])
def test_invalid_encoded_word_message(args, message):
    with pytest.raises(ValueError) as excinfo:
        EncodedWord(*args)
    assert str(excinfo.value) == message


_UR, _REDO, _COMMIT, _UNDO = (
    EntryType.UNDO_REDO, EntryType.REDO, EntryType.COMMIT, EntryType.UNDO,
)


@pytest.mark.parametrize("entry_type,addr,undo,message", [
    (_UR, 0x41, 0xCD, "log entries are word aligned"),
    (_REDO, 0x44, 0xCD, "log entries are word aligned"),
    (_UR, 0x40, None, "undo-carrying entries need undo data"),
    (_UNDO, 0x40, None, "undo-carrying entries need undo data"),
    (_REDO, 0x40, 0xCD, "redo entries carry no undo data"),
    (_COMMIT, 0x40, None, "commit records use CommitRecord"),
    (_COMMIT, 0x40, 0xCD, "commit records use CommitRecord"),
])
def test_invalid_log_entry_message(entry_type, addr, undo, message):
    with pytest.raises(ValueError) as excinfo:
        LogEntry(entry_type, 1, 7, addr, 0xAB, undo)
    assert str(excinfo.value) == message


def test_replace_validates():
    assert replace(ENCODED, payload=0xFF).payload == 0xFF
    with pytest.raises(ValueError, match="payload wider than payload_bits"):
        replace(ENCODED, payload=0x100)
    assert replace(ENTRY, addr=0x48).addr == 0x48
    with pytest.raises(ValueError, match="log entries are word aligned"):
        replace(ENTRY, addr=0x41)
    with pytest.raises(ValueError, match="redo entries carry no undo data"):
        replace(ENTRY, type=EntryType.REDO)


# ---------------------------------------------------------------------------
# One computation per memo fill: no cache behind the memo
# ---------------------------------------------------------------------------

def _counting(monkeypatch, module, name):
    counted = mock.Mock(wraps=getattr(module, name))
    monkeypatch.setattr(module, name, counted)
    return counted


def _encode_twice_per_codec(module, word):
    for codec in (module.data_codec, module.log_codec):
        first = codec.encode(word)
        assert codec.encode(word) == first


@pytest.mark.parametrize("data_codec,log_codec", [("crade", "slde"), ("fpc", "fpc")])
def test_repeated_word_classified_once_per_memo_fill(monkeypatch, data_codec, log_codec):
    module = NvmModule(
        NVMConfig(), EncodingConfig(data_codec=data_codec, log_codec=log_codec)
    )
    classify = _counting(monkeypatch, fpc_mod, "fpc_match")
    word = 0x0123_4567_89AB_CDEF
    _encode_twice_per_codec(module, word)
    assert classify.call_count == 2  # once per codec's memo
    module.clear_memos()
    _encode_twice_per_codec(module, word)
    assert classify.call_count == 4


def test_repeated_word_bdi_compressed_once_per_memo_fill(monkeypatch):
    module = NvmModule(
        NVMConfig(), EncodingConfig(data_codec="bdi", log_codec="slde-bdi")
    )
    compress = _counting(monkeypatch, bdi_mod, "bdi_compress")
    word = 0x1111_2222_3333_4444
    _encode_twice_per_codec(module, word)
    assert compress.call_count == 2
    module.clear_memos()
    _encode_twice_per_codec(module, word)
    assert compress.call_count == 4


# ---------------------------------------------------------------------------
# Zero-width payloads
# ---------------------------------------------------------------------------

class TestZeroWidthPayload:
    def test_encoded_word_refuses_payload_wider_than_zero_bits(self):
        with pytest.raises(ValueError):
            EncodedWord("crade", 5, 0, 5, ExpansionPolicy.EXPAND1)

    def test_array_cannot_record_a_value_no_cell_holds(self):
        array = NvmArray(NVMConfig())
        with pytest.raises(ValueError):
            array.write_word(
                0, EncodedWord("crade", 5, 0, 5, ExpansionPolicy.EXPAND1), 5
            )
        assert len(array) == 0

    def test_cell_mapping_refuses_payload_wider_than_zero_bits(self):
        for policy in ExpansionPolicy:
            with pytest.raises(ValueError):
                map_bits_to_cells(5, 0, policy)
            assert map_bits_to_cells(0, 0, policy) == ()
