"""NVM substrate tests: cell costs, the array, bank timing, the module."""

import pytest
from hypothesis import given, strategies as st

from repro.common.bitops import WORD_MASK
from repro.common.config import (
    EncodingConfig,
    NVMConfig,
    TLC_WRITE_ENERGY_PJ,
    TLC_WRITE_LATENCY_NS,
)
from repro.common.stats import StatGroup
from repro.encoding.base import RawCodec
from repro.encoding.flipnwrite import FlipNWriteCodec
from repro.nvm.array import NvmArray
from repro.nvm.cell import program_cost
from repro.nvm.module import NvmModule, WriteKind
from repro.nvm.timing import BankTiming, WriteQueue

levels = st.lists(
    st.integers(min_value=0, max_value=7), min_size=22, max_size=22
)


class TestProgramCost:
    def test_identical_levels_free(self):
        cost = program_cost((1, 2, 3), (1, 2, 3), NVMConfig())
        assert cost.cells_programmed == 0
        assert cost.latency_ns == 0.0
        assert cost.energy_pj == 0.0

    def test_single_cell_cost_matches_table(self):
        cost = program_cost((0,), (0b100,), NVMConfig())
        assert cost.cells_programmed == 1
        assert cost.latency_ns == TLC_WRITE_LATENCY_NS[0b100]
        assert cost.energy_pj == TLC_WRITE_ENERGY_PJ[0b100]

    def test_latency_is_max_energy_is_sum(self):
        cost = program_cost((0, 0), (0b100, 0b111), NVMConfig())
        assert cost.latency_ns == TLC_WRITE_LATENCY_NS[0b100]
        assert cost.energy_pj == pytest.approx(
            TLC_WRITE_ENERGY_PJ[0b100] + TLC_WRITE_ENERGY_PJ[0b111]
        )

    def test_latency_scale_applies(self):
        config = NVMConfig(write_latency_scale=4.0)
        cost = program_cost((0,), (0b111,), config)
        assert cost.latency_ns == pytest.approx(4.0 * TLC_WRITE_LATENCY_NS[0b111])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            program_cost((0,), (0, 1), NVMConfig())

    @given(levels, levels)
    def test_programmed_count_equals_differing_cells(self, old, new):
        cost = program_cost(tuple(old), tuple(new), NVMConfig())
        assert cost.cells_programmed == sum(
            1 for a, b in zip(old, new) if a != b
        )


class TestNvmArray:
    def _array(self):
        return NvmArray(NVMConfig(), StatGroup("t"))

    def test_pristine_reads_zero(self):
        assert self._array().read_logical(0x1000) == 0

    def test_write_read_roundtrip(self):
        array = self._array()
        codec = RawCodec()
        array.write_word(0x1000, codec.encode(0xDEAD), 0xDEAD)
        assert array.read_logical(0x1000) == 0xDEAD

    def test_silent_rewrite_programs_nothing(self):
        array = self._array()
        codec = RawCodec()
        array.write_word(0x1000, codec.encode(0xDEAD), 0xDEAD)
        cost = array.write_word(0x1000, codec.encode(0xDEAD), 0xDEAD)
        assert cost.cells_programmed == 0 and cost.silent

    def test_silent_encoding_skips_slot(self):
        from repro.encoding.dldc import DldcCodec

        array = self._array()
        encoded = DldcCodec().encode_log(0x42, 0)
        cost = array.write_word(0x1000, encoded, 0x42)
        assert cost.silent and cost.bits_written == 0
        assert array.read_logical(0x1000) == 0  # untouched

    def test_unaligned_addr_normalized(self):
        array = self._array()
        array.write_word(0x1003, RawCodec().encode(7), 7)
        assert array.read_logical(0x1000) == 7

    def test_snapshot_is_deep(self):
        array = self._array()
        codec = RawCodec()
        array.write_word(0x0, codec.encode(1), 1)
        snap = array.snapshot()
        array.write_logical(0x0, 99)
        assert snap[0].logical == 1

    def test_expansion_writes_fewer_cells_than_raw(self):
        from repro.encoding.crade import CradeCodec

        raw_array = self._array()
        crade_array = self._array()
        raw_cost = raw_array.write_word(0, RawCodec().encode(0x7F), 0x7F)
        crade_cost = crade_array.write_word(0, CradeCodec().encode(0x7F), 0x7F)
        assert crade_cost.cells_programmed < raw_cost.cells_programmed


class TestWriteQueue:
    def test_accept_immediate_when_space(self):
        queue = WriteQueue(4, 0.75)
        assert queue.accept_time(100.0) == 100.0

    def test_accept_blocks_when_full(self):
        queue = WriteQueue(2, 0.5)
        queue.push(200.0)
        queue.push(300.0)
        assert queue.accept_time(100.0) == 200.0

    def test_entries_drain_over_time(self):
        queue = WriteQueue(2, 0.5)
        queue.push(200.0)
        queue.push(300.0)
        assert queue.occupancy(250.0) == 1
        assert queue.accept_time(250.0) == 250.0

    def test_drain_time_to_watermark(self):
        queue = WriteQueue(4, 0.5)  # watermark at 2 entries
        for end in (100.0, 200.0, 300.0, 400.0):
            queue.push(end)
        # 4 entries at t=0; drains to 2 when the 2nd oldest finishes.
        assert queue.drain_time_to_watermark(0.0) == 200.0

    def test_out_of_order_pushes_kept_sorted(self):
        queue = WriteQueue(4, 0.5)
        queue.push(300.0)
        queue.push(100.0)
        assert queue.accept_time(0.0) == 0.0
        assert queue.occupancy(150.0) == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            WriteQueue(0, 0.5)


class TestBankTiming:
    def _timing(self):
        return BankTiming(NVMConfig(), StatGroup("t"))

    def test_line_interleaving_across_channels(self):
        timing = self._timing()
        channels = {timing.location(line * 64)[0] for line in range(8)}
        assert channels == set(range(4))

    def test_same_bank_serializes(self):
        timing = self._timing()
        first = timing.write(0, 0.0, 100.0)
        second = timing.write(0, 0.0, 100.0)
        assert second.finish_ns >= first.finish_ns + 100.0

    def test_different_banks_parallel(self):
        timing = self._timing()
        a = timing.write(0, 0.0, 100.0)
        b = timing.write(64, 0.0, 100.0)  # different channel
        assert abs(a.finish_ns - b.finish_ns) < 1e-9

    def test_read_waits_for_busy_bank(self):
        timing = self._timing()
        write = timing.write(0, 0.0, 100.0)
        read_done = timing.read(0, 0.0)
        assert read_done > write.finish_ns

    def test_reset_clears_state(self):
        timing = self._timing()
        timing.write(0, 0.0, 100.0)
        timing.reset()
        fresh = timing.write(0, 0.0, 100.0)
        assert fresh.accept_ns == 0.0


class TestNvmModule:
    def _module(self, **enc):
        return NvmModule(NVMConfig(), EncodingConfig(**enc), StatGroup("t"))

    def test_data_line_roundtrip(self):
        module = self._module()
        words = [1, 2, 3, 4, 5, 6, 7, 8]
        module.write_data_line(0x40, words, 0.0)
        got, _t = module.read_line(0x40, 0.0)
        assert list(got) == words

    def test_wrong_word_count_rejected(self):
        with pytest.raises(ValueError):
            self._module().write_data_line(0, [1, 2, 3], 0.0)

    def test_log_entry_with_slde(self):
        module = self._module()
        old, new = 0x10, 0x13
        from repro.common.bitops import dirty_byte_mask

        module.write_log_entry(
            0x100, [0xAA, 0xBB], 0.0,
            undo=old, redo=new, dirty_mask=dirty_byte_mask(old, new),
        )
        assert module.array.written_addresses(0x100, 0x200) == [
            0x100, 0x108, 0x110, 0x118]
        assert module.stats.get("log_writes") == 1

    def test_decode_word_verifies_consistency(self):
        module = self._module()
        module.write_data_line(0x40, [9] * 8, 0.0)
        assert module.decode_word(0x40) == 9
        # Corrupt the logical value; decode must notice.
        module.array.write_logical(0x40, 10)
        with pytest.raises(ValueError):
            module.decode_word(0x40)

    def test_context_free_line_write_reads_no_old_word(self, monkeypatch):
        module = self._module()
        module.write_data_line(0x40, [1] * 8, 0.0)
        reads = []
        read_logical = module.array.read_logical
        monkeypatch.setattr(
            module.array, "read_logical",
            lambda addr: reads.append(addr) or read_logical(addr),
        )
        module.write_data_line(0x40, [2] * 8, 5.0)
        assert reads == []

    def test_flip_n_write_line_encodes_against_the_old_words(self):
        module = self._module(data_codec="flip-n-write")
        old_words = [0, WORD_MASK, 0x0F0F, 1, WORD_MASK - 1, 0x8000, 7, 0]
        new_words = [WORD_MASK, 0, 0xF0F0, 1, 3, WORD_MASK, 7, 0xFFFF]
        module.write_data_line(0x80, old_words, 0.0)
        module.write_data_line(0x80, new_words, 5.0)
        reference = FlipNWriteCodec()
        for i, (new, old) in enumerate(zip(new_words, old_words)):
            stored = module.array.read_word(0x80 + 8 * i).encoded
            assert stored == reference.encode(new, old)

    def test_commit_kind_counted_separately(self):
        module = self._module()
        module.write_log_entry(0x200, [1, 2], 0.0, kind=WriteKind.COMMIT)
        assert module.stats.get("commit_writes") == 1
        assert module.stats.get("log_writes") == 0

    def test_silent_request_elided(self):
        module = self._module()
        module.write_data_line(0x40, [5] * 8, 0.0)
        cells = module.stats.get("cells_programmed")
        silent = module.stats.get("silent_requests")
        schedule = module.write_data_line(0x40, [5] * 8, 10.0)
        assert module.stats.get("cells_programmed") == cells
        assert module.stats.get("silent_requests") == silent + 1
        assert schedule.finish_ns == 10.0
