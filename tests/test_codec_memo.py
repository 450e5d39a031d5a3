"""Codec memoization is result-inert: a memo hit equals a fresh compute.

Every memoizing codec (FPC, CRADE, BDI, SLDE) owns one LRU memo
(:mod:`repro.encoding.memo`), always on.  The differentials below run
each memoized entry point — ``encode``, ``encode_line``, ``encode_log``,
``encode_undo_redo_pair`` and the ``decision_hook`` stream — against a
second codec of the same kind whose memos are cleared before every
call, so every one of its results is computed.  Each input is encoded
twice on the memoized side, so the second call is a hit.  Whole-system
bit identity is pinned by the goldens (``tests/golden/nvm_images.json``
covers all 11 designs).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.bitops import dirty_byte_mask
from repro.common.config import EncodingConfig, NVMConfig
from repro.encoding import (
    FlipNWriteCodec,
    LogWriteContext,
    LruMemo,
    SldeCodec,
    make_codec,
)
from repro.logging_hw.entries import EntryType, LogEntry, pack_meta_words
from repro.nvm.module import NvmModule

words = st.integers(min_value=0, max_value=(1 << 64) - 1)
#: Few distinct values, so drawn lists repeat words as workloads do.
clustered = st.one_of(words, st.sampled_from((0, 1, 0x7F, 0x11, 0x19, 2**63)))
lines = st.lists(clustered, min_size=8, max_size=8)

#: Every data codec, by its configuration name.
DATA_CODECS = ("crade", "fpc", "bdi", "raw", "flip-n-write")
#: Every codec that keeps a memo, by its configuration name.
MEMO_CODECS = ("crade", "bdi", "slde", "slde-bdi")
#: The codecs with a log path, by name: SLDE over CRADE and over BDI,
#: and over Flip-N-Write, whose output depends on the old word, so
#: SLDE's memo key must keep it.
LOG_CODECS = {
    "slde": lambda: make_codec("slde"),
    "slde-bdi": lambda: make_codec("slde-bdi"),
    "slde-flip-n-write": lambda: SldeCodec(alternative=FlipNWriteCodec()),
}


def computed(codec, call):
    """``call(codec)`` after dropping every memo entry: a fresh compute."""
    codec.clear_memos()
    return call(codec)


class TestLruMemo:
    def test_bounded_eviction_is_lru(self):
        memo = LruMemo(maxsize=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refreshes "a"
        memo.put("c", 3)  # evicts "b", the least recently used
        assert memo.get("b") is None
        assert memo.get("a") == 1 and memo.get("c") == 3
        assert len(memo) == 2

    def test_stats_count_hits_and_misses(self):
        memo = LruMemo(maxsize=4)
        assert memo.get("k") is None
        memo.put("k", "v")
        assert memo.get("k") == "v"
        stats = memo.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["maxsize"] == 4

    def test_none_value_rejected(self):
        with pytest.raises(ValueError):
            LruMemo(4).put("k", None)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            LruMemo(0)


class TestMemoizedEqualsComputed:
    """Each entry point returns what the same codec computes afresh."""

    @pytest.mark.parametrize("name", MEMO_CODECS)
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(clustered, min_size=1, max_size=12))
    def test_encode(self, name, values):
        memoized, fresh = make_codec(name), make_codec(name)
        for w in values:
            expected = computed(fresh, lambda c: c.encode(w))
            for _ in range(2):
                got = memoized.encode(w)
                assert got == expected
                assert memoized.decode(got) == w

    @pytest.mark.parametrize("name", MEMO_CODECS)
    @settings(max_examples=60, deadline=None)
    @given(batches=st.lists(st.tuples(lines, lines), min_size=1, max_size=4))
    def test_encode_line(self, name, batches):
        memoized, fresh = make_codec(name), make_codec(name)
        for new_words, old_words in batches:
            expected = computed(fresh, lambda c: c.encode_line(new_words, old_words))
            for _ in range(2):
                assert memoized.encode_line(new_words, old_words) == expected

    @pytest.mark.parametrize("name", LOG_CODECS)
    @settings(max_examples=100, deadline=None)
    @given(triples=st.lists(
        st.tuples(clustered, clustered, st.booleans()), min_size=1, max_size=12
    ))
    def test_encode_log(self, name, triples):
        memoized, fresh = LOG_CODECS[name](), LOG_CODECS[name]()
        for old, new, allow in triples:
            ctx = LogWriteContext(
                old_word=old,
                dirty_mask=dirty_byte_mask(old, new),
                allow_dldc=allow,
            )
            expected = computed(fresh, lambda c: c.encode_log(new, ctx))
            for _ in range(2):
                # EncodedWord equality covers method, payload, bit counts,
                # policy, dirty mask and silence.
                got = memoized.encode_log(new, ctx)
                assert got == expected
                if not got.silent:
                    assert memoized.decode(got, old) == new

    @pytest.mark.parametrize("name", LOG_CODECS)
    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(clustered, clustered), min_size=1, max_size=10))
    def test_encode_undo_redo_pair(self, name, pairs):
        memoized, fresh = LOG_CODECS[name](), LOG_CODECS[name]()
        for undo, redo in pairs:
            mask = dirty_byte_mask(undo, redo)
            expected = computed(
                fresh, lambda c: c.encode_undo_redo_pair(undo, redo, mask)
            )
            for _ in range(2):
                assert memoized.encode_undo_redo_pair(undo, redo, mask) == expected

    @pytest.mark.parametrize("name", LOG_CODECS)
    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.booleans(), clustered, clustered), min_size=1, max_size=12
    ))
    def test_decision_hook_stream(self, name, ops):
        memoized, fresh = LOG_CODECS[name](), LOG_CODECS[name]()
        streams = ([], [])
        memoized.decision_hook = lambda *args: streams[0].append(args)
        fresh.decision_hook = lambda *args: streams[1].append(args)
        for as_pair, old, new in ops:
            mask = dirty_byte_mask(old, new)
            ctx = LogWriteContext(old_word=old, dirty_mask=mask)
            for _ in range(2):
                if as_pair:
                    memoized.encode_undo_redo_pair(old, new, mask)
                    computed(fresh, lambda c: c.encode_undo_redo_pair(old, new, mask))
                else:
                    memoized.encode_log(new, ctx)
                    computed(fresh, lambda c: c.encode_log(new, ctx))
        assert streams[0] == streams[1]


#: The memos each codec reports, by ``memo_stats()`` key.
MEMO_NAMES = {
    "fpc": ["encode"],
    "crade": ["encode"],
    "bdi": ["encode"],
    "slde": ["alternative.encode", "log"],
    "slde-bdi": ["alternative.encode", "log"],
    "raw": [],
    "flip-n-write": [],
}


class TestMemoShape:
    @pytest.mark.parametrize("name", MEMO_NAMES)
    def test_one_memo_per_decision(self, name):
        assert list(make_codec(name).memo_stats()) == MEMO_NAMES[name]

    def test_memo_hits_actually_happen(self):
        codec = make_codec("slde")
        ctx = LogWriteContext(old_word=0x11, dirty_mask=0x01)
        codec.encode_log(0x19, ctx)
        codec.encode_log(0x19, ctx)
        assert codec.memo_stats()["log"]["hits"] >= 1

    def test_pair_sides_share_the_word_memo(self):
        codec = make_codec("slde")
        undo, redo = 0x0123_4567_89AB_CDEF, 0x0123_4567_89AB_CDEE
        codec.encode_undo_redo_pair(undo, redo, 0x01)
        hits = codec.memo_stats()["log"]["hits"]
        codec.encode_log(redo, LogWriteContext(old_word=undo, dirty_mask=0x01))
        assert codec.memo_stats()["log"]["hits"] == hits + 1

    def test_clear_keeps_counters(self):
        codec = make_codec("slde")
        codec.encode_log(0x19, LogWriteContext(old_word=0x11, dirty_mask=0x01))
        before = codec.memo_stats()
        codec.clear_memos()
        after = codec.memo_stats()
        for name, counters in after.items():
            assert counters["entries"] == 0
            assert {k: v for k, v in counters.items() if k != "entries"} == {
                k: v for k, v in before[name].items() if k != "entries"
            }


class TestHookReplay:
    """The decision hook fires identically on cache hits."""

    def test_single_word_hook_replayed(self):
        codec = make_codec("slde")
        calls = []
        codec.decision_hook = lambda *args: calls.append(args)
        ctx = LogWriteContext(old_word=0x11, dirty_mask=0x01)
        codec.encode_log(0x19, ctx)
        codec.encode_log(0x19, ctx)  # cache hit
        assert len(calls) == 2
        assert calls[0] == calls[1]

    def test_pair_hooks_replayed_in_order(self):
        codec = make_codec("slde")
        calls = []
        codec.decision_hook = lambda *args: calls.append(args)
        undo, redo = 0x0123_4567_89AB_CDEF, 0x0123_4567_89AB_CDEE
        codec.encode_undo_redo_pair(undo, redo, 0x01)
        codec.encode_undo_redo_pair(undo, redo, 0x01)  # both sides hit
        assert len(calls) == 4
        assert calls[:2] == calls[2:]


class TestComputeStep:
    """The step behind each data codec's memo: the NVM module sends log
    metadata (and InCLL's and CoW-Page's unframed words) through it,
    past the memo."""

    @pytest.mark.parametrize("name", DATA_CODECS)
    @settings(max_examples=60, deadline=None)
    @given(word=words)
    def test_compute_equals_encode_and_skips_the_memo(self, name, word):
        codec = make_codec(name)
        before = codec.memo_stats()
        computed_word = codec.compute(word)
        assert codec.memo_stats() == before
        assert computed_word == codec.encode(word)

    def test_framed_entry_makes_no_data_memo_lookup(self):
        module = NvmModule(NVMConfig(), EncodingConfig())
        entry = LogEntry(EntryType.UNDO_REDO, 1, 7, 0x40, 0x19, 0x11, 0x01)
        module.write_log_entry(
            0x1000, pack_meta_words(entry, 1, 5), 0.0,
            undo=entry.undo, redo=entry.redo, dirty_mask=entry.dirty_mask,
        )
        data = module.memo_stats()["data.encode"]
        assert (data["hits"], data["misses"]) == (0, 0)
        # The data words went through SLDE's own memo.
        assert module.memo_stats()["log.log"]["misses"] == 2

    def test_data_line_after_an_entry_adds_eight_lookups(self):
        module = NvmModule(NVMConfig(), EncodingConfig())
        entry = LogEntry(EntryType.REDO, 1, 7, 0x40, 0x19, None, 0x01)
        module.write_log_entry(
            0x1000, pack_meta_words(entry, 1, 5), 0.0,
            redo=entry.redo, dirty_mask=entry.dirty_mask,
        )
        module.write_data_line(0x2000, [0, 1, 1, 0x19, 7, 7, 7, 2**40], 5.0)
        data = module.memo_stats()["data.encode"]
        assert data["hits"] + data["misses"] == 8
