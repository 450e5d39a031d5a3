"""Log entry packing, circular region and buffer tests."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import LogOverflowError
from repro.common.stats import StatGroup
from repro.logging_hw.buffers import LogBuffer
from repro.logging_hw.entries import (
    CommitRecord,
    EntryType,
    LogEntry,
    pack_meta_words,
    seq_follows,
    unpack_meta_words,
)
from repro.logging_hw.region import CONTROL_SLOTS, LogRegion, LogRegionSet
from repro.memory.controller import MemoryController
from tests.conftest import tiny_config


def ur_entry(addr=0x100, tid=0, txid=1, undo=1, redo=2, mask=0xFF):
    return LogEntry(EntryType.UNDO_REDO, tid, txid, addr, redo, undo, mask)


def redo_entry(addr=0x100, tid=0, txid=1, redo=2, mask=0xFF):
    return LogEntry(EntryType.REDO, tid, txid, addr, redo, dirty_mask=mask)


class TestEntries:
    def test_slot_counts(self):
        assert EntryType.UNDO_REDO.n_slots == 4
        assert EntryType.REDO.n_slots == 3
        assert EntryType.COMMIT.n_slots == 2

    def test_redo_with_undo_rejected(self):
        with pytest.raises(ValueError):
            LogEntry(EntryType.REDO, 0, 1, 0x100, 2, undo=1)

    def test_undo_redo_without_undo_rejected(self):
        with pytest.raises(ValueError):
            LogEntry(EntryType.UNDO_REDO, 0, 1, 0x100, 2)

    def test_unaligned_addr_rejected(self):
        with pytest.raises(ValueError):
            ur_entry(addr=0x101)

    @given(
        st.sampled_from([EntryType.UNDO_REDO, EntryType.REDO]),
        st.integers(0, 255),
        st.integers(0, 65535),
        st.integers(0, 1),
        st.integers(0, (1 << 20) - 1),
        st.integers(0, (1 << 45) - 1).map(lambda a: a * 8),
        st.integers(0, 255),
    )
    def test_meta_pack_unpack_roundtrip(self, etype, tid, txid, torn, seq, addr, mask):
        if etype is EntryType.UNDO_REDO:
            entry = LogEntry(etype, tid, txid, addr, 2, 1, mask)
        else:
            entry = LogEntry(etype, tid, txid, addr, 2, dirty_mask=mask)
        meta = unpack_meta_words(*pack_meta_words(entry, torn, seq))
        assert (meta.type, meta.tid, meta.txid) == (etype, tid, txid)
        assert (meta.torn, meta.seq) == (torn, seq)
        assert (meta.addr, meta.dirty_mask) == (addr, mask)

    def test_commit_record_roundtrip(self):
        record = CommitRecord(tid=3, txid=9, ulog_counter=5, timestamp=42)
        meta = unpack_meta_words(*pack_meta_words(record, 1, 7))
        assert meta.type is EntryType.COMMIT
        assert meta.ulog_counter == 5
        assert meta.timestamp == 42

    def test_undo_only_entry_roundtrip(self):
        entry = LogEntry(EntryType.UNDO, 2, 7, 0x200, 0, undo=0xAB)
        meta = unpack_meta_words(*pack_meta_words(entry, 1, 3))
        assert meta.type is EntryType.UNDO
        assert EntryType.UNDO.n_slots == 3

    def test_all_two_bit_types_are_defined(self):
        # The 2-bit type field is fully allocated (undo+redo, redo,
        # commit, undo); garbage slots are detected by the torn bit and
        # sequence chain instead.
        for value in range(4):
            assert EntryType(value) is not None

    def test_seq_follows_wraps(self):
        assert seq_follows(5, 6)
        assert seq_follows((1 << 20) - 1, 0)
        assert not seq_follows(5, 7)


class TestLogRegion:
    def _region(self, size=4096):
        config = tiny_config()
        controller = MemoryController(config, StatGroup("t"))
        region = LogRegion(controller, 0x1000_0000, size, StatGroup("t"))
        return controller, region

    def test_append_advances_tail(self):
        _c, region = self._region()
        region.append(ur_entry(), 0.0)
        assert region.tail == CONTROL_SLOTS + 4
        assert region.used_slots() == 4

    def test_append_writes_nvmm(self):
        controller, region = self._region()
        region.append(ur_entry(undo=0xAA, redo=0xBB), 0.0)
        array = controller.nvm.array
        base = region.slot_addr(CONTROL_SLOTS)
        assert array.read_logical(base + 16) == 0xAA
        assert array.read_logical(base + 24) == 0xBB

    def test_overflow_raises_without_handler(self):
        _c, region = self._region(size=64 * 8)
        with pytest.raises(LogOverflowError):
            for i in range(100):
                region.append(ur_entry(addr=0x100 + 8 * i, txid=i), 0.0)

    def test_overflow_handler_frees_space(self):
        _c, region = self._region(size=64 * 8)

        def free_everything(now_ns):
            region.truncate(lambda e: True, now_ns)
            return now_ns

        region.on_overflow = free_everything
        for i in range(100):
            region.append(ur_entry(addr=0x100 + 8 * i, txid=i), 0.0)
        assert region.stats.get("entries_truncated") > 0

    @pytest.mark.parametrize("make, fits", [
        (lambda i: ur_entry(txid=i), 13),
        (lambda i: redo_entry(txid=i), 17),
        (lambda i: CommitRecord(tid=0, txid=i), 26),
    ], ids=("UNDO_REDO", "REDO", "COMMIT"))
    def test_full_region_keeps_one_max_size_entry_free(self, make, fits):
        # 56 entry slots.  An entry goes in while its slots plus one
        # 4-slot entry stay free, so head == tail stays unambiguous.
        _c, region = self._region(size=64 * 8)
        calls = []
        region.on_overflow = lambda now: calls.append(now) or now
        for i in range(fits):
            region.append(make(i), 0.0)
        assert calls == []
        with pytest.raises(LogOverflowError):
            region.append(make(fits), 7.0)
        assert calls == [7.0]

    def test_wrap_flips_parity(self):
        _c, region = self._region(size=(CONTROL_SLOTS + 10) * 8)
        region.on_overflow = lambda now: region.truncate(lambda e: True, now)
        parity0 = region.parity
        for i in range(6):
            region.append(ur_entry(txid=i), 0.0)
        assert region.stats.get("wraps") >= 1
        assert region.parity != parity0 or region.stats.get("wraps") % 2 == 0

    def test_truncate_prefix_only(self):
        _c, region = self._region()
        region.append(ur_entry(txid=1), 0.0)
        region.append(ur_entry(txid=2, addr=0x200), 0.0)
        region.append(ur_entry(txid=1, addr=0x300), 0.0)
        freed = region.truncate(lambda e: e.txid == 1, 0.0)
        # Only the leading txid=1 entry frees; txid=2 blocks the prefix.
        assert freed == 1
        assert region.used_slots() == 8

    def test_control_block_persisted(self):
        controller, region = self._region()
        region.append(ur_entry(txid=1), 0.0)
        region.truncate(lambda e: True, 0.0)
        head, seq, parity = LogRegion.read_control(controller, region.base_addr)
        assert head == region.head
        assert seq == region.head_seq
        assert parity == region.head_parity

    def test_too_small_region_rejected(self):
        config = tiny_config()
        controller = MemoryController(config, StatGroup("t"))
        with pytest.raises(ValueError):
            LogRegion(controller, 0x1000_0000, 64)

    def test_answers_the_region_set_shape(self):
        """A single region lists itself the way LogRegionSet lists its
        per-thread regions, so callers need no isinstance branch."""
        controller, region = self._region()
        regions = LogRegionSet(controller, 0x2000_0000, 8192, 2)
        assert region.regions == [region]
        assert region.region_bases() == [0x1000_0000]
        assert region.region_bytes == 4096
        assert regions.region_bases() == [r.base_addr for r in regions.regions]
        assert regions.region_bytes == regions.regions[0].region_bytes == 4096


class TestLogBuffer:
    def test_insert_and_find(self):
        buffer = LogBuffer("t", 4, None, drop_silent=False)
        entry = ur_entry()
        buffer.insert(entry, 0.0)
        assert buffer.find(entry.key).entry is entry

    def test_capacity_eviction_fifo(self):
        buffer = LogBuffer("t", 2, None, drop_silent=False)
        a = ur_entry(addr=0x100)
        b = ur_entry(addr=0x108)
        c = ur_entry(addr=0x110)
        buffer.insert(a, 0.0)
        buffer.insert(b, 1.0)
        evicted = buffer.insert(c, 2.0)
        assert evicted == [a]

    def test_coalesce_keeps_oldest_undo_newest_redo(self):
        buffer = LogBuffer("t", 4, None, drop_silent=False)
        buffer.insert(ur_entry(undo=10, redo=20, mask=0x0F), 0.0)
        buffer.insert(ur_entry(undo=20, redo=30, mask=0xF0), 5.0)
        merged = buffer.find((0, 1, 0x100)).entry
        assert merged.undo == 10
        assert merged.redo == 30
        assert merged.dirty_mask == 0xFF

    def test_coalesce_keeps_insertion_time(self):
        buffer = LogBuffer("t", 4, 10.0, drop_silent=False)
        buffer.insert(ur_entry(redo=1), 0.0)
        buffer.insert(ur_entry(redo=2), 9.0)
        expired = buffer.pop_expired(10.5)
        assert len(expired) == 1 and expired[0].redo == 2

    def test_mixed_type_coalesce_rejected(self):
        buffer = LogBuffer("t", 4, None, drop_silent=False)
        buffer.insert(ur_entry(), 0.0)
        with pytest.raises(ValueError):
            buffer.insert(redo_entry(), 1.0)

    def test_silent_drop(self):
        buffer = LogBuffer("t", 4, None, drop_silent=True)
        assert buffer.insert(ur_entry(mask=0), 0.0) == []
        assert len(buffer) == 0
        assert buffer.stats.get("silent_drops") == 1

    def test_silent_kept_without_dirty_flags(self):
        buffer = LogBuffer("t", 4, None, drop_silent=False)
        buffer.insert(ur_entry(mask=0), 0.0)
        assert len(buffer) == 1

    def test_pop_expired_respects_age(self):
        buffer = LogBuffer("t", 4, 10.0, drop_silent=False)
        buffer.insert(ur_entry(addr=0x100), 0.0)
        buffer.insert(ur_entry(addr=0x108), 5.0)
        assert len(buffer.pop_expired(12.0)) == 1
        assert len(buffer.pop_expired(20.0)) == 1

    def test_pop_tx(self):
        buffer = LogBuffer("t", 8, None, drop_silent=False)
        buffer.insert(ur_entry(txid=1, addr=0x100), 0.0)
        buffer.insert(ur_entry(txid=2, addr=0x108), 0.0)
        buffer.insert(ur_entry(txid=1, addr=0x110), 0.0)
        popped = buffer.pop_tx(0, 1)
        assert [e.addr for e in popped] == [0x100, 0x110]
        assert len(buffer) == 1

    def test_pop_addr_range(self):
        buffer = LogBuffer("t", 8, None, drop_silent=False)
        buffer.insert(ur_entry(addr=0x100), 0.0)
        buffer.insert(ur_entry(addr=0x138), 0.0)
        buffer.insert(ur_entry(addr=0x140), 0.0)
        popped = buffer.pop_addr_range(0x100, 64)
        assert sorted(e.addr for e in popped) == [0x100, 0x138]
