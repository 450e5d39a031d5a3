"""Motivation statistics from a recorded store stream, against a per-store
reference.

:func:`repro.analysis.motivation.motivation_stats` reads Figure 3, Figure
5, Table II and the same-transaction rewrite fraction from a
:class:`StoreTrace`'s columns in bulk.  :class:`ReferenceCollector` below
computes the same numbers one store at a time, as a ``System.trace`` tap
sees them; the tests require exact float equality between the two, on
generated traces and on real recorded runs.
"""

from collections import OrderedDict

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.motivation import motivation_stats
from repro.common.bitops import WORD_BYTES, dirty_byte_mask, select_bytes
from repro.common.stats import Histogram
from repro.core.designs import make_system
from repro.encoding.dldc import PATTERN_NAMES, dldc_compress_pattern
from repro.replay import StoreTrace, TraceError, TraceRecorder
from repro.replay.container import OP_COMPUTE, OP_LOAD, OP_STORE, OP_STORE_NT
from repro.workloads.base import WorkloadParams, make_workload
from tests.conftest import tiny_config

BASE = tiny_config().nvmm_base


class ReferenceCollector:
    """The per-store motivation statistics, fed through ``System.trace``."""

    def __init__(self) -> None:
        self.distance = Histogram()
        self.first_writes = 0
        self.total_writes = 0
        self.clean_bytes = 0
        self.dirty_bytes = 0
        self.rewrites_in_tx = 0
        self._last_seen = {}
        self._write_counter = {}
        self._tx_words = {}
        self._tx_ids = {}
        self.pattern_counts = OrderedDict(
            (name, 0) for name in PATTERN_NAMES.values()
        )
        self.pattern_counts["uncompressed"] = 0

    def on_tx_store(self, tid, txid, addr, old, new) -> None:
        self.total_writes += 1
        counter = self._write_counter.get(tid, 0)
        seen = self._last_seen.setdefault(tid, {})
        last = seen.get(addr)
        if last is None:
            self.first_writes += 1
        else:
            self.distance.observe(counter - last - 1)
        seen[addr] = counter
        self._write_counter[tid] = counter + 1

        if self._tx_ids.get(tid) != txid:
            self._tx_ids[tid] = txid
            self._tx_words[tid] = set()
        if addr in self._tx_words[tid]:
            self.rewrites_in_tx += 1
        else:
            self._tx_words[tid].add(addr)

        mask = dirty_byte_mask(old, new)
        dirty = bin(mask).count("1")
        self.dirty_bytes += dirty
        self.clean_bytes += WORD_BYTES - dirty
        if mask == 0:
            return
        dirty_data = select_bytes(new, mask)
        match = dldc_compress_pattern(dirty_data)
        if match is not None and match[2] + 3 < 8 * len(dirty_data):
            self.pattern_counts[PATTERN_NAMES[match[0]]] += 1
        else:
            self.pattern_counts["uncompressed"] += 1

    def stats(self) -> dict:
        total = self.total_writes or 1
        distance = OrderedDict([("First Write", self.first_writes / total)])
        for label, count in self.distance.counts().items():
            distance[label] = count / total
        bytes_ = self.clean_bytes + self.dirty_bytes
        patterns = sum(self.pattern_counts.values()) or 1
        return {
            "write_distance": list(distance.items()),
            "clean_byte_fraction": self.clean_bytes / bytes_ if bytes_ else 0.0,
            "pattern_fractions": [
                (name, count / patterns)
                for name, count in self.pattern_counts.items()
            ],
            "rewrite_fraction": (
                self.rewrites_in_tx / self.total_writes
                if self.total_writes else 0.0
            ),
        }


def as_dict(stats) -> dict:
    """``MotivationStats`` in :meth:`ReferenceCollector.stats`'s shape."""
    return {
        "write_distance": list(stats.write_distance.items()),
        "clean_byte_fraction": stats.clean_byte_fraction,
        "pattern_fractions": list(stats.pattern_fractions.items()),
        "rewrite_fraction": stats.rewrite_fraction,
    }


def build_trace(transactions, n_threads=4):
    """A StoreTrace of ``[(core, [(kind, addr, old, new), ...]), ...]``.

    Stores at or above ``BASE`` get an old/new pair; loads, compute ops
    and volatile stores do not.
    """
    columns = {name: [] for name in (
        "op_kind", "op_addr", "op_val", "tx_start", "tx_core",
        "pair_old", "pair_new",
    )}
    for core, ops in transactions:
        columns["tx_start"].append(len(columns["op_kind"]))
        columns["tx_core"].append(core)
        for kind, addr, old, new in ops:
            columns["op_kind"].append(kind)
            columns["op_addr"].append(0 if kind == OP_COMPUTE else addr)
            columns["op_val"].append(0 if kind == OP_LOAD else new)
            if kind in (OP_STORE, OP_STORE_NT) and addr >= BASE:
                columns["pair_old"].append(old)
                columns["pair_new"].append(new)
    return StoreTrace(meta={"n_threads": n_threads}, setup_addr=[],
                      setup_val=[], **columns)


def reference_stats(transactions) -> dict:
    """Feed ``transactions``' persistent stores through the reference."""
    reference = ReferenceCollector()
    for txid, (core, ops) in enumerate(transactions):
        for kind, addr, old, new in ops:
            if kind in (OP_STORE, OP_STORE_NT) and addr >= BASE:
                reference.on_tx_store(core, txid, addr, old, new)
    return reference.stats()


def stores(core, *words):
    """One transaction on ``core`` of persistent (offset, old, new) stores."""
    return core, [(OP_STORE, BASE + off, old, new) for off, old, new in words]


#: Hand-checked cases, as (name, transactions, check on the result).
CASES = [
    ("first-write-counted", [stores(0, (0x100, 0, 1))],
     lambda s: s.write_distance["First Write"] == 1.0
     and sum(s.write_distance.values()) == 1.0),
    ("distance-between-rewrites",
     [stores(0, (0x100, 0, 1), (0x108, 0, 1), (0x110, 0, 1), (0x100, 1, 2))],
     lambda s: s.write_distance["2-3"] == 1 / 4),
    ("distance-is-per-thread", [stores(0, (0x100, 0, 1)), stores(1, (0x100, 0, 1))],
     lambda s: s.write_distance["First Write"] == 1.0),
    ("clean-byte-fraction", [stores(0, (0x100, 0x00, 0xFF))],
     lambda s: s.clean_byte_fraction == 7 / 8),
    ("silent-store", [stores(0, (0x100, 5, 5))],
     lambda s: s.clean_byte_fraction == 1.0
     and not any(s.pattern_fractions.values())),
    ("rewrite-fraction-resets-per-tx",
     [stores(0, (0x100, 0, 1), (0x100, 1, 2)), stores(0, (0x100, 2, 3))],
     lambda s: s.rewrite_fraction == 1 / 3),
    ("pattern-census-counts-zero-pattern", [stores(0, (0x100, 0xFF, 0x00))],
     lambda s: s.pattern_fractions["all-zero"] == 1.0),
    ("distribution-includes-first-write", [stores(0, (0x100, 0, 1))],
     lambda s: list(s.write_distance)[0] == "First Write"),
]


@pytest.mark.parametrize("transactions,check",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_worked_cases(transactions, check):
    assert check(motivation_stats(build_trace(transactions), BASE))


words = st.one_of(
    st.integers(0, 0xFF),
    st.integers(0, 0xFFFF),
    st.integers(0, (1 << 64) - 1),
)
ops = st.tuples(
    st.sampled_from((OP_STORE, OP_STORE, OP_STORE, OP_STORE_NT, OP_LOAD,
                     OP_COMPUTE)),
    # A small word pool makes rewrites common; the lowest words sit
    # below BASE, so some stores are volatile.
    st.integers(-2, 12).map(lambda i: BASE + WORD_BYTES * i),
    words,
    words,
)
transactions = st.lists(
    st.tuples(st.integers(0, 3), st.lists(ops, max_size=12)), max_size=10
)


def _with_case_examples(test):
    for _name, case, _check in CASES:
        test = example(case)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(transactions)
@_with_case_examples
def test_matches_per_store_reference(transactions):
    stats = motivation_stats(build_trace(transactions), BASE)
    assert as_dict(stats) == reference_stats(transactions)


@pytest.mark.parametrize("workload", ["echo", "tpcc", "redis"])
def test_recorded_run_matches_tapped_run(workload):
    """One real run, seen both ways: tapped per store and recorded."""
    system = make_system("FWB-CRADE", tiny_config())
    reference, recorder = ReferenceCollector(), TraceRecorder()
    system.trace, system.recorder = reference, recorder
    params = WorkloadParams(initial_items=64, key_space=128, seed=5)
    system.run(make_workload(workload, params), 24, 2)
    trace = recorder.finish({"n_threads": 2})
    stats = motivation_stats(trace, system.config.nvmm_base)
    assert reference.total_writes > 0
    assert as_dict(stats) == reference.stats()


def test_nt_and_volatile_stores_match_tapped_run():
    system = make_system("MorLog-SLDE", tiny_config())
    reference, recorder = ReferenceCollector(), TraceRecorder()
    system.trace, system.recorder = reference, recorder
    base = system.config.nvmm_base

    def body(ctx):
        ctx.store(base, 0x11)
        ctx.store_nt(base + 0x40, 0xFF00)
        ctx.store(0x1000, 7)  # volatile: no pair, not a motivation store
        ctx.load(base)
        ctx.compute(3)
        ctx.store(base, 0x12)

    for core in (0, 1, 0):
        system.dispatch_transaction(core, body)
    trace = recorder.finish({"n_threads": 2})
    assert trace.pair_new.size == reference.total_writes == 9
    assert as_dict(motivation_stats(trace, base)) == reference.stats()


class TestMisalignedPairs:
    def trace(self):
        return build_trace([stores(0, (0x100, 0, 1), (0x108, 0, 2))])

    def test_missing_pair_rejected(self):
        trace = self.trace()
        trace.pair_old, trace.pair_new = trace.pair_old[:1], trace.pair_new[:1]
        with pytest.raises(TraceError, match="2 persistent-store ops but 1"):
            motivation_stats(trace, BASE)

    def test_wrong_nvmm_base_rejected(self):
        with pytest.raises(TraceError, match="0 persistent-store ops but 2"):
            motivation_stats(self.trace(), BASE + 0x1000)

    def test_pair_value_mismatch_rejected(self):
        trace = self.trace()
        trace.pair_new = trace.pair_new.copy()
        trace.pair_new[1] = 9
        with pytest.raises(TraceError, match="pair 1 stores 0x9"):
            motivation_stats(trace, BASE)
