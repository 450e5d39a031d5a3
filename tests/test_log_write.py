"""One log write, from the entry to programmed cells, against its old composition.

``NvmModule.write_log_entry`` takes an entry's words as plain ints plus
one dirty mask, encodes them, programs them and posts the write in one
call, and returns only the ``WriteSchedule``.  The reference below is the
composition it replaces, kept only here: ``encode_log_words`` as it was,
on log data words that each carry an optional ``LogWriteContext`` (built
from the same draws), with the metadata through the data codec's memo;
then a flat-map array that programs every word through
:func:`~repro.nvm.cell.dcw_cost` (three dicts keyed by word address, no
pages, no pristine step); then the bank timing's write as it was
(``location``, the write queue's ``accept_time``, the bank's busy-until
step, the queue's ``push`` with its sorted rebuild).
Every comparison is ``==``, floats included.

The last test pins what one log entry programs per entry type.  An
``UNDO`` entry programs one word more than its slots: the UNDO-entry
spill, recorded in ROADMAP.md and kept until the goldens are regenerated.
"""

from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.bitops import WORD_BYTES, WORD_MASK
from repro.common.config import EncodingConfig, NVMConfig
from repro.common.stats import StatGroup
from repro.encoding.expansion import CELLS_PER_WORD, pack_payload
from repro.encoding.slde import LogWriteContext, SldeCodec
from repro.logging_hw.entries import (
    CommitRecord,
    EntryType,
    LogEntry,
    pack_meta_words,
)
from repro.nvm.array import _TAG_MASK, _TAG_SHIFT, StoredWord, WriteCost, _tag_value
from repro.nvm.cell import cost_tables, dcw_cost
from repro.nvm.module import NvmModule, WriteKind
from repro.nvm.timing import BankTiming, WriteSchedule
from tests.conftest import make_tiny_system

# Sixteen word slots, so entries keep landing on programmed slots (a
# wrapped log).
SLOTS = 16
_DATA_MASK = (1 << 3 * CELLS_PER_WORD) - 1


# ---------------------------------------------------------------------------
# Reference: the composition write_log_entry replaces
# ---------------------------------------------------------------------------

class FlatArray:
    """NvmArray.write_words over three flat maps, every word through
    dcw_cost, with the array's counters."""

    def __init__(self, config: NVMConfig, stats: StatGroup) -> None:
        self.logical: Dict[int, int] = {}
        self.cells: Dict[int, int] = {}   # data | tag << _TAG_SHIFT
        self.wear: Dict[int, int] = {}
        self.encoded: Dict[int, object] = {}
        self.stats = stats
        self.tables = cost_tables(config)

    def write_words(self, addr, encoded, logicals) -> WriteCost:
        waddr = (addr & ~(WORD_BYTES - 1)) - WORD_BYTES
        cells_total, bits_total, latency, energy = 0, 0, 0.0, 0.0
        written = silent = 0
        counter = self.stats.get("energy_pj")
        for enc, logical in zip(encoded, logicals):
            waddr += WORD_BYTES
            if enc.silent:
                silent += 1
                continue
            written += 1
            state = self.cells.get(waddr, 0)
            old = state & _DATA_MASK
            new, n_cells = pack_payload(enc.payload, enc.payload_bits, enc.policy)
            if n_cells < CELLS_PER_WORD:
                new |= old >> (3 * n_cells) << (3 * n_cells)
            cells, word_latency, word_energy = dcw_cost(old, new, *self.tables)
            tag = state >> _TAG_SHIFT & _TAG_MASK
            if enc.tag_bits > 0 or enc.method != "raw":
                new_tag = _tag_value(enc)
                tag_cells, tag_latency, tag_energy = dcw_cost(
                    tag, new_tag, *self.tables)
                cells += tag_cells
                word_latency = max(word_latency, tag_latency)
                word_energy += tag_energy
                tag = new_tag
            self.cells[waddr] = new | tag << _TAG_SHIFT
            self.logical[waddr] = logical & WORD_MASK
            self.encoded[waddr] = enc
            if cells:
                self.wear[waddr] = self.wear.get(waddr, 0) + cells
                cells_total += cells
                latency = max(latency, word_latency)
                energy += word_energy
                counter += word_energy
            bits_total += enc.payload_bits + enc.tag_bits
        if written:
            self.stats.add("word_writes", written)
            self.stats.add("cells_programmed", cells_total)
            self.stats.add("bits_written", bits_total)
            self.stats.set("energy_pj", counter)
        if silent:
            self.stats.add("silent_word_writes", silent)
        return WriteCost(cells_total, bits_total, latency, energy, cells_total == 0)

    def read_word(self, waddr: int) -> StoredWord:
        state = self.cells.get(waddr, 0)
        return StoredWord(self.logical.get(waddr, 0), state & _DATA_MASK,
                          state >> _TAG_SHIFT & _TAG_MASK, self.encoded.get(waddr))


def timing_write(timing, addr, now_ns, latency_ns) -> WriteSchedule:
    """BankTiming.write as it was, its ``_acquire`` step inlined, and the
    write queue's ``accept_time`` and ``push`` as they were."""
    channel, bank = timing.location(addr)
    queue = timing._queues[channel]
    ends = queue._service_ends
    while ends and ends[0] <= now_ns:
        ends.popleft()
    if len(ends) < queue.capacity:
        accept = now_ns
    else:
        # Wait for the oldest in-flight write to finish.
        accept = ends[len(ends) - queue.capacity]
    stall = accept - now_ns
    if stall > 0:
        timing.stats.add("write_queue_stall_ns", stall)
    duration = latency_ns + timing._config.access_overhead_ns
    begin = max(accept, timing._busy_until.get((channel, bank), 0.0))
    end = begin + duration
    timing._busy_until[(channel, bank)] = end
    # An end before the queue's last one: a sorted rebuild.
    if ends and end < ends[-1]:
        queue._service_ends = deque(sorted(list(ends) + [end]))
    else:
        ends.append(end)
    timing.stats.add("writes")
    return WriteSchedule(accept_ns=accept, finish_ns=end, stall_ns=stall)


@dataclass(frozen=True)
class DataWord:
    """One word of log data as the module took it: a value and the
    SLDE context, None without dirty information."""

    logical: int
    context: Optional[LogWriteContext] = None


def encrypt_log_words(module: NvmModule, undo, redo):
    """The secure-mode transform as it was, per data word."""
    out = []
    for item in (undo, redo):
        if item is None:
            out.append(None)
            continue
        ctx = item.context
        if module._secure == "deuce" and ctx is not None and ctx.dirty_mask == 0:
            out.append(item)  # clean word stays clean under DEUCE
            continue
        new_ctx = None
        if ctx is not None:
            new_ctx = LogWriteContext(
                old_word=None, dirty_mask=0xFF, allow_dldc=ctx.allow_dldc)
        out.append(DataWord(module._cipher(0, item.logical, 1), new_ctx))
    return out[0], out[1]


def encode_log_words(module: NvmModule, meta_words, undo, redo):
    """NvmModule.encode_log_words as it was, on ``module``'s codecs."""
    logicals = [meta & WORD_MASK for meta in meta_words]
    encoded = list(module.data_codec.encode_line(logicals))
    plain = [item.logical if item is not None else None for item in (undo, redo)]
    if module._secure != "none":
        undo, redo = encrypt_log_words(module, undo, redo)
    slde = module.log_codec if isinstance(module.log_codec, SldeCodec) else None
    if undo is not None and redo is not None and slde is not None:
        mask = 0xFF if redo.context is None else redo.context.dirty_mask
        encoded.extend(slde.encode_undo_redo_pair(undo.logical, redo.logical, mask))
        logicals.extend([plain[0] & WORD_MASK, plain[1] & WORD_MASK])
        return encoded, logicals
    for item, plain_value in zip((undo, redo), plain):
        if item is None:
            continue
        if slde is not None and item.context is not None:
            encoded.append(slde.encode_log(item.logical, item.context))
        else:
            encoded.append(module.log_codec.encode(item.logical))
        logicals.append(plain_value & WORD_MASK)
    return encoded, logicals


def data_words(undo, redo, dirty_mask):
    """The reference's data words for one entry: the mask and the undo
    value as every word's context, as the logger built them."""
    context = None
    if dirty_mask is not None:
        context = LogWriteContext(old_word=undo, dirty_mask=dirty_mask)
    return (
        None if undo is None else DataWord(undo, context),
        None if redo is None else DataWord(redo, context),
    )


class Composition:
    """encode_log_words, then the flat array, then the old bank write."""

    def __init__(self, nvm_config: NVMConfig, encoding_config: EncodingConfig):
        self.module = NvmModule(nvm_config, encoding_config, StatGroup("reference"))
        self.stats = self.module.stats
        self.array = FlatArray(nvm_config, self.stats)

    def write_log_entry(self, addr, meta_words, now_ns, undo, redo, dirty_mask, kind):
        encoded, logicals = encode_log_words(
            self.module, meta_words, *data_words(undo, redo, dirty_mask))
        cost = self.array.write_words(addr, encoded, logicals)
        if cost.silent:
            self.stats.add("silent_requests")
            return WriteSchedule(accept_ns=now_ns, finish_ns=now_ns, stall_ns=0.0)
        schedule = timing_write(self.module.timing, addr, now_ns, cost.latency_ns)
        self.stats.add("%s_writes" % kind.value)
        self.stats.add("%s_bits" % kind.value, cost.bits_written)
        self.stats.add("%s_energy_pj" % kind.value, cost.energy_pj)
        return schedule


# ---------------------------------------------------------------------------
# Strategies: log entries as the loggers and the log region hand them over
# ---------------------------------------------------------------------------

# Small domains, so contexts, silent words and rewrites repeat.
words = st.sampled_from(
    (0, 1, 0xFF, 0x1234, 0xDEAD_BEEF, 0x0123_4567_89AB_CDEF, WORD_MASK))
masks = st.sampled_from((0, 0x01, 0x0F, 0xFF))


@st.composite
def requests(draw):
    """One ``write_log_entry`` call: (addr, meta, undo, redo, mask, kind)."""
    addr = WORD_BYTES * draw(st.integers(0, SLOTS - 1))
    entry_type = draw(st.sampled_from(list(EntryType)))
    tid, txid = draw(st.integers(0, 3)), draw(st.integers(0, 40))
    torn, seq = draw(st.integers(0, 1)), draw(st.integers(0, 3))
    if entry_type is EntryType.COMMIT:
        record = CommitRecord(tid, txid, draw(st.integers(0, 3)),
                              draw(st.integers(0, 99)))
        return (addr, pack_meta_words(record, torn, seq), None, None, None,
                WriteKind.COMMIT)
    if draw(st.booleans()):
        # An unframed write, as InCLL and the CoW page table make.
        return (addr, draw(st.lists(words, min_size=1, max_size=2)), None, None,
                None, WriteKind.LOG)
    undo_value = draw(words) if entry_type is not EntryType.REDO else None
    record = LogEntry(entry_type, tid, txid, 8 * draw(st.integers(0, 64)),
                      draw(words), undo_value, draw(masks))
    # With or without dirty flags, as HardwareLogger.persist_entry decides.
    dirty_mask = record.dirty_mask if draw(st.booleans()) else None
    return (addr, pack_meta_words(record, torn, seq), record.undo, record.redo,
            dirty_mask, WriteKind.LOG)


class TestAgainstComposition:
    @pytest.mark.parametrize("secure", ("none", "deuce", "full"))
    @pytest.mark.parametrize("log_codec", ("slde", "crade"))
    @pytest.mark.parametrize("scale", (1.0, 2.5), ids=("scale1", "scale2.5"))
    @settings(max_examples=60, deadline=None)
    @given(stream=st.lists(st.tuples(requests(), st.sampled_from((0.0, 5.0, 120.0))),
                           min_size=1, max_size=24))
    def test_fused_write_matches_composition(self, secure, log_codec, scale, stream):
        nvm_config = NVMConfig(write_latency_scale=scale)
        encoding = replace(EncodingConfig(), log_codec=log_codec, secure_mode=secure)
        module = NvmModule(nvm_config, encoding, StatGroup("fused"))
        reference = Composition(nvm_config, encoding)
        now = 0.0
        for (addr, meta, undo, redo, mask, kind), step in stream:
            now += step
            assert module.write_log_entry(
                addr, meta, now, undo=undo, redo=redo, dirty_mask=mask, kind=kind
            ) == reference.write_log_entry(addr, meta, now, undo, redo, mask, kind)
        assert module.stats.as_dict() == reference.stats.as_dict()
        for waddr in range(0, (SLOTS + 4) * WORD_BYTES, WORD_BYTES):
            assert module.array.read_word(waddr) == reference.array.read_word(waddr)
        assert module.array.wear == reference.array.wear

    @settings(max_examples=60, deadline=None)
    @given(stream=st.lists(
        st.tuples(st.integers(0, 63), st.sampled_from((0.0, 5.0, 120.0)),
                  st.sampled_from((50.0, 400.0, 1200.0))),
        min_size=1, max_size=40))
    def test_bank_write_matches_composition_with_a_full_queue(self, stream):
        # Two-entry write queues fill, so producers stall.
        config = NVMConfig(write_queue_entries=2)
        fused = BankTiming(config, StatGroup("fused"))
        reference = BankTiming(config, StatGroup("reference"))
        now = 0.0
        for line, step, latency in stream:
            now += step
            assert fused.write(64 * line, now, latency) == timing_write(
                reference, 64 * line, now, latency)
        assert fused.stats.as_dict() == reference.stats.as_dict()

    def test_returns_the_schedule_alone(self):
        module = NvmModule(NVMConfig(), EncodingConfig(), StatGroup("t"))
        schedule = module.write_log_entry(0x100, [0x1234, 0x5678], 10.0)
        assert isinstance(schedule, WriteSchedule)
        assert schedule.accept_ns == 10.0 and schedule.finish_ns > 10.0


# ---------------------------------------------------------------------------
# Words programmed per entry type
# ---------------------------------------------------------------------------

UNDO_SPILL = pytest.mark.xfail(
    strict=True,
    reason="UNDO-entry spill: persist_entry always passes a redo word and "
    "LogRegion.append adds the undo word, so an UNDO entry programs 4 words "
    "into its 3 slots (ROADMAP.md)",
)


@pytest.mark.parametrize("entry_type", [
    EntryType.UNDO_REDO,
    EntryType.REDO,
    EntryType.COMMIT,
    pytest.param(EntryType.UNDO, marks=UNDO_SPILL),
], ids=lambda t: t.name)
def test_entry_programs_exactly_its_slots(entry_type):
    system = make_tiny_system("Undo-CRADE")
    logger, stats = system.logger, system.stats
    before = stats.get("word_writes") + stats.get("silent_word_writes")
    if entry_type is EntryType.COMMIT:
        logger.persist_commit(CommitRecord(tid=0, txid=1, timestamp=1), 0.0)
    else:
        undo = 0x1111 if entry_type is not EntryType.REDO else None
        logger.persist_entry(
            LogEntry(entry_type, 0, 1, 0x40, 0x2222, undo, 0xFF), 0.0)
    words = stats.get("word_writes") + stats.get("silent_word_writes") - before
    assert words == entry_type.n_slots
