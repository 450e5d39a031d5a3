"""The per-operation path against the answers it used to recompute.

Every simulated load and store runs the logger's ``tick``, an L1 probe
and, on a miss, a line fill; every log write passes the write queue;
every buffered store builds a ``LogEntry``; every set-up store lands in
the NVM array.  Each of these skips work whose answer it already has.
The references below are the old forms, kept only here: an LRU cache as
plain lists, ``tick`` as a persist of ``pop_expired``'s full loop, the
write queue's sorted rebuild, eight ``read_logical`` calls per line, the
``System.setup_*`` path, and ``LogEntry``'s error messages.
"""

import re
from collections import deque
from dataclasses import fields
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cacheline import CacheLine
from repro.cache.hierarchy import CacheHierarchy
from repro.common.bitops import WORD_BYTES, WORDS_PER_LINE, dirty_byte_mask
from repro.common.config import EncodingConfig, NVMConfig
from repro.common.stats import StatGroup
from repro.logging_hw.entries import EntryType, LogEntry
from repro.memory.controller import MemoryController
from repro.nvm.array import NvmArray
from repro.nvm.module import NvmModule
from repro.nvm.timing import WriteQueue
from repro.workloads import make_workload
from repro.workloads.base import SetupContext, WorkloadParams
from tests.conftest import make_tiny_system, tiny_config


# ---------------------------------------------------------------------------
# The L1 probe and SetAssocCache against a reference LRU model
# ---------------------------------------------------------------------------

class ReferenceLru:
    """A set-associative LRU cache: per set, a list of (base, line),
    least recently used first."""

    def __init__(self, level) -> None:
        self.line_bytes = level.line_bytes
        self.assoc = level.assoc
        self.n_sets = level.size_bytes // level.line_bytes // level.assoc
        self.sets: List[list] = [[] for _ in range(self.n_sets)]

    def _ways(self, addr: int):
        return addr // self.line_bytes * self.line_bytes, self.sets[
            addr // self.line_bytes % self.n_sets]

    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        base, ways = self._ways(addr)
        for i, (way_base, line) in enumerate(ways):
            if way_base == base:
                if touch:
                    ways.append(ways.pop(i))
                return line
        return None

    def insert(self, line: CacheLine) -> Optional[CacheLine]:
        base, ways = self._ways(line.base_addr)
        victim = None
        present = [i for i, (way_base, _l) in enumerate(ways) if way_base == base]
        if present:
            del ways[present[0]]
        elif len(ways) >= self.assoc:
            victim = ways.pop(0)[1]
        ways.append((base, line))
        return victim

    def remove(self, addr: int) -> Optional[CacheLine]:
        base, ways = self._ways(addr)
        for i, (way_base, line) in enumerate(ways):
            if way_base == base:
                del ways[i]
                return line
        return None

    def contents(self) -> List[List[int]]:
        return [[base for base, _line in ways] for ways in self.sets]


# One and a half times the tiny L1's 64 lines, so sets fill and evict
# and a probe hits about half the time.
_CACHE_LINES = 96
_ADDR = st.integers(0, _CACHE_LINES * 64 - 1)
_CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), _ADDR, st.booleans()),
        st.tuples(st.just("insert"), st.integers(0, _CACHE_LINES - 1), st.just(False)),
        st.tuples(st.just("remove"), _ADDR, st.just(False)),
        st.tuples(st.just("access"), _ADDR, st.booleans()),
    ),
    min_size=60,
    max_size=200,
)


class TestSetAssocCache:
    @settings(max_examples=150, deadline=None)
    @given(ops=_CACHE_OPS)
    def test_matches_a_reference_lru(self, ops):
        config = tiny_config()
        stats = StatGroup("t")
        hierarchy = CacheHierarchy(config, MemoryController(config, stats), stats)
        cache = hierarchy.l1s[0]
        reference = ReferenceLru(config.caches.l1)
        hit_cycles = {True: config.cores.store_hit_cycles,
                      False: config.caches.l1.latency_cycles}
        for kind, arg, flag in ops:
            if kind == "lookup":
                assert cache.lookup(arg, touch=flag) is reference.lookup(arg, flag)
            elif kind == "insert":
                line = CacheLine(arg * 64)
                assert cache.insert(line) is reference.insert(line)
            elif kind == "remove":
                assert cache.remove(arg) is reference.remove(arg)
            else:
                # The hierarchy's inlined L1 probe: on a hit it returns
                # the line lookup finds and refreshes LRU as lookup does.
                expected = reference.lookup(arg)
                if expected is None:
                    assert cache.lookup(arg, touch=False) is None
                    continue
                line, done = hierarchy.access(0, arg, 5.0, is_store=flag)
                assert line is expected
                assert done == 5.0 + hit_cycles[flag] * config.cores.ns_per_cycle
            assert [list(bucket) for bucket in cache._sets] == reference.contents()
            assert len(cache) == sum(map(len, reference.sets))


# ---------------------------------------------------------------------------
# tick against a persist of pop_expired's full loop
# ---------------------------------------------------------------------------

def pop_expired_reference(buffer, now_ns: float) -> list:
    """LogBuffer.pop_expired as it was: the FIFO loop alone."""
    if buffer.evict_age_ns is None:
        return []
    out = []
    while buffer._entries:
        key = next(iter(buffer._entries))
        buffered = buffer._entries[key]
        if now_ns - buffered.insert_ns < buffer.evict_age_ns:
            break
        del buffer._entries[key]
        out.append(buffered.entry)
    if out:
        buffer.stats.add("age_evictions", len(out))
    return out


def _tick_buffer(system):
    logger = system.logger
    return logger.ur_buffer if hasattr(logger, "ur_buffer") else logger.buffer


def _entry(system, tid: int, txid: int, word: int, value: int) -> LogEntry:
    entry_type = getattr(system.logger, "entry_type", EntryType.UNDO_REDO)
    return LogEntry(
        type=entry_type,
        tid=tid,
        txid=txid,
        addr=word * WORD_BYTES,
        redo=0 if entry_type is EntryType.UNDO else value,
        undo=None if entry_type is EntryType.REDO else value ^ 0xFF,
        dirty_mask=0xFF,
    )


def _buffer_state(buffer) -> list:
    return [(key, b.entry, b.insert_ns) for key, b in buffer._entries.items()]


# Integer times and an integer age keep every age comparison exact, so
# ticks land on the bound (``now - insert == age``) as well as either side.
_AGE_NS = 8.0
_KEY = (st.integers(0, 1), st.integers(1, 3), st.integers(0, 11))
_BUFFER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), *_KEY, st.integers(0, 24)),
        st.tuples(st.just("pop_key"), *_KEY),
        st.tuples(st.just("pop_tx"), st.integers(0, 1), st.integers(1, 3)),
        st.tuples(st.just("pop_range"), st.integers(0, 1)),
        st.tuples(st.just("tick"), st.integers(0, 32)),
    ),
    min_size=20,
    max_size=80,
)


class TestTick:
    # FWB-Unsafe's buffer has no age bound.
    @pytest.mark.parametrize("design", (
        "MorLog-SLDE", "FWB-CRADE", "FWB-Unsafe", "Undo-CRADE", "Redo-CRADE"))
    @settings(max_examples=60, deadline=None)
    @given(ops=_BUFFER_OPS)
    def test_matches_a_persist_of_the_full_loop(self, design, ops):
        fast, slow = make_tiny_system(design), make_tiny_system(design)
        buffers = _tick_buffer(fast), _tick_buffer(slow)
        for buffer in buffers:
            if buffer.evict_age_ns is not None:
                buffer.evict_age_ns = _AGE_NS
        for op in ops:
            kind, args = op[0], op[1:]
            if kind == "tick":
                now = float(args[0])
                reference = pop_expired_reference(buffers[1], now)
                assert fast.logger.tick(now) == slow.logger._persist_many(
                    reference, now)[0]
                assert _buffer_state(buffers[0]) == _buffer_state(buffers[1])
                assert fast.stats.as_dict() == slow.stats.as_dict()
                continue
            for system, buffer in zip((fast, slow), buffers):
                if kind == "insert":
                    tid, txid, word, now = args
                    buffer.insert(_entry(system, tid, txid, word, now), float(now))
                elif kind == "pop_key":
                    tid, txid, word = args
                    buffer.pop_key((tid, txid, word * WORD_BYTES))
                elif kind == "pop_tx":
                    buffer.pop_tx(*args)
                else:
                    buffer.pop_addr_range(args[0] * 64, 64)


# ---------------------------------------------------------------------------
# Log entries: the store paths' positional builds and the error messages
# ---------------------------------------------------------------------------

def test_entry_field_order():
    # The store paths build entries positionally in this order.
    assert [f.name for f in fields(LogEntry)] == [
        "type", "tid", "txid", "addr", "redo", "undo", "dirty_mask"]


_OLD, _NEW = 0x1122334455667788, 0x1122334455AA7788


@pytest.mark.parametrize("design", (
    "MorLog-SLDE", "MorLog-CRADE", "FWB-CRADE", "FWB-SLDE", "Undo-CRADE",
    "Redo-CRADE"))
def test_store_paths_put_undo_and_redo_in_place(design):
    system = make_tiny_system(design)
    addr = system.config.nvmm_base + 0x40 + 3 * WORD_BYTES
    system.setup_store(addr, _OLD)
    tx = system.begin_tx(0)
    system.store_word(0, addr, _NEW)
    entry = _tick_buffer(system).find((0, tx.txid, addr)).entry
    undo, redo = {
        EntryType.UNDO_REDO: (_OLD, _NEW),
        EntryType.UNDO: (_OLD, 0),
        EntryType.REDO: (None, _NEW),
    }[entry.type]
    assert (entry.tid, entry.txid, entry.addr) == (0, tx.txid, addr)
    assert (entry.undo, entry.redo) == (undo, redo)
    assert entry.dirty_mask == (
        dirty_byte_mask(_OLD, _NEW) if system.logger.use_dirty_flags else 0xFF)


@pytest.mark.parametrize("entry_type, addr, undo, message", (
    (EntryType.REDO, 0x1004, None, "log entries are word aligned"),
    (EntryType.UNDO_REDO, 0x1001, None, "log entries are word aligned"),
    (EntryType.UNDO_REDO, 0x1000, None, "undo-carrying entries need undo data"),
    (EntryType.UNDO, 0x1000, None, "undo-carrying entries need undo data"),
    (EntryType.REDO, 0x1000, 7, "redo entries carry no undo data"),
    (EntryType.COMMIT, 0x1000, None, "commit records use CommitRecord"),
    (EntryType.COMMIT, 0x1000, 7, "commit records use CommitRecord"),
))
def test_invalid_entries_raise_the_same_message(entry_type, addr, undo, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        LogEntry(type=entry_type, tid=0, txid=1, addr=addr, redo=5, undo=undo)


@pytest.mark.parametrize("entry_type, undo", (
    (EntryType.UNDO_REDO, 6), (EntryType.UNDO, 6), (EntryType.REDO, None)))
def test_valid_entries_build_positionally(entry_type, undo):
    assert LogEntry(entry_type, 1, 2, 0x1000, 5, undo, 0x0F) == LogEntry(
        type=entry_type, tid=1, txid=2, addr=0x1000, redo=5, undo=undo,
        dirty_mask=0x0F)


# ---------------------------------------------------------------------------
# The write queue against its sorted rebuild
# ---------------------------------------------------------------------------

def push_reference(ends: deque, service_end_ns: float) -> deque:
    """WriteQueue.push as it was: a sorted rebuild for an out-of-order end."""
    if ends and service_end_ns < ends[-1]:
        return deque(sorted(list(ends) + [service_end_ns]))
    ends.append(service_end_ns)
    return ends


_TIME = st.one_of(
    st.sampled_from((0.0, 10.0, 10.0, 25.5, 40.0)),
    st.floats(0.0, 500.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), _TIME), max_size=80))
def test_write_queue_push_matches_the_sorted_rebuild(ops):
    queue = WriteQueue(capacity=64, watermark=0.8)
    reference: deque = deque()
    for push, time_ns in ops:
        if push:
            queue.push(time_ns)
            reference = push_reference(reference, time_ns)
        else:
            while reference and reference[0] <= time_ns:
                reference.popleft()
            assert queue.occupancy(time_ns) == len(reference)
        assert list(queue._service_ends) == list(reference)


# ---------------------------------------------------------------------------
# A line fill against eight read_logical calls
# ---------------------------------------------------------------------------

def _eight_reads(array: NvmArray, addr: int) -> tuple:
    return tuple(array.read_logical(addr + i * WORD_BYTES)
                 for i in range(WORDS_PER_LINE))


# Lines at a page's start and end, and the lines around a written one.
_LINES = (0x4000, 0x4040, 0x4080, 0x40C0, 0x4FC0, 0x5000)


class TestReadLine:
    def test_missing_page(self):
        array = NvmArray(NVMConfig())
        for addr in _LINES:
            assert array.read_line(addr) == _eight_reads(array, addr) == (0,) * 8
        assert len(array) == 0

    def test_partially_written_page(self):
        array = NvmArray(NVMConfig())
        # Two slots of the line at 0x4080, and each neighbour's nearest slot.
        for addr in (0x4078, 0x4088, 0x40A8, 0x40C0, 0x4FF8):
            array.write_logical(addr, addr * 3 + 1)
        for addr in _LINES:
            assert array.read_line(addr) == _eight_reads(array, addr)
        assert array.read_line(0x4080) == (0, 0x4088 * 3 + 1, 0, 0, 0,
                                           0x40A8 * 3 + 1, 0, 0)

    def test_after_a_rollback_drops_slots(self):
        array = NvmArray(NVMConfig())
        array.write_logical(0x4088, 11)
        with array.journaled_logical_writes():
            for addr in range(0x4040, 0x40C8, WORD_BYTES):
                array.write_logical(addr, addr)
        for addr in _LINES:
            assert array.read_line(addr) == _eight_reads(array, addr)
        assert array.read_line(0x4080) == (0, 11, 0, 0, 0, 0, 0, 0)

    def test_module_fill_reads_the_array_and_the_bank(self):
        module = NvmModule(NVMConfig(), EncodingConfig(), StatGroup("m"))
        bank = NvmModule(NVMConfig(), EncodingConfig(), StatGroup("b")).timing
        for addr in (0x4080, 0x40C0):
            module.array.write_logical(addr + 8, addr)
        for now, addr in ((0.0, 0x4080), (1.0, 0x4080), (2.0, 0x40C0)):
            words, finish = module.read_line(addr, now)
            assert words == _eight_reads(module.array, addr)
            assert finish == bank.read(addr, now)


# ---------------------------------------------------------------------------
# Set-up stores against the System.setup_* path
# ---------------------------------------------------------------------------

class _SetupTap:
    def __init__(self) -> None:
        self.stores = []

    def on_setup_store(self, addr: int, value: int) -> None:
        self.stores.append((addr, value))


def _setup_stores(system) -> list:
    nvm, dram = system.config.nvmm_base, 0x10_0000
    stores = []
    for i in range(40):
        base = nvm if i % 3 else dram
        stores.append((base + (i * 7 % 24) * WORD_BYTES, i * 0x0101 + 1))
    return stores


class TestSetupContext:
    def test_matches_the_system_setup_path(self):
        direct, system_path = make_tiny_system(), make_tiny_system()
        ctx = SetupContext(direct)
        stores = _setup_stores(direct)
        for addr, value in stores:
            ctx.store(addr, value)
            system_path.setup_store(addr, value)
        # Written and never-written words, on both sides of the NVMM base.
        addrs = {addr for addr, _value in stores}
        addrs |= {addr + 0x400 for addr in addrs}
        for addr in sorted(addrs):
            assert ctx.load(addr) == system_path.setup_load(addr)
            assert direct.setup_load(addr) == system_path.setup_load(addr)
        assert (direct.controller.nvm.array.snapshot()
                == system_path.controller.nvm.array.snapshot())

    def test_a_recorder_sees_every_store_in_order(self):
        system = make_tiny_system()
        ctx = SetupContext(system)
        system.recorder = tap = _SetupTap()
        stores = _setup_stores(system)
        for addr, value in stores:
            ctx.store(addr, value)
        assert tap.stores == stores
        for addr, value in dict(stores).items():
            assert ctx.load(addr) == value

    def test_a_recorded_workload_setup_builds_the_same_image(self):
        params = WorkloadParams(initial_items=64, key_space=256)
        plain, recorded = make_tiny_system(), make_tiny_system()
        recorded.recorder = tap = _SetupTap()
        make_workload("hash", params).setup(plain, 2)
        make_workload("hash", params).setup(recorded, 2)
        assert tap.stores
        assert (plain.controller.nvm.array.snapshot()
                == recorded.controller.nvm.array.snapshot())
