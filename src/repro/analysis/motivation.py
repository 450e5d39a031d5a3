"""The paper's motivation studies (Figures 3 and 5, Table II).

Section II measures the stores inside transactions, which the authors
captured with PIN.  Here the store stream is a recorded
:class:`~repro.replay.StoreTrace`, and :func:`motivation_stats` reads
every motivation number from its columns:

- Figure 3's write distance: per thread, the number of writes between
  two writes to the same word (``First Write`` for its first write);
- Figure 5's clean bytes: the bytes of a word that its store leaves
  unchanged;
- Table II's census: which DLDC pattern the dirty bytes of each
  non-silent store compress to;
- the share of stores that rewrite a word their own transaction already
  wrote (CONSEQUENCE 1's coalescing potential).

The clean bytes and the census classify each store with the scalar code
every log write runs: :func:`~repro.common.bitops.dirty_byte_mask` and
:func:`~repro.encoding.dldc.dldc_compress_pattern`.

The figure functions below record one cell of the baseline design with
:func:`~repro.replay.record_trace` and read its statistics.
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.common.bitops import WORD_BYTES, dirty_byte_mask, select_bytes
from repro.common.config import SystemConfig
from repro.common.stats import Histogram
from repro.encoding.dldc import PATTERN_NAMES, dldc_compress_pattern
from repro.replay.container import OP_STORE, OP_STORE_NT, StoreTrace, TraceError
from repro.replay.recorder import record_trace
from repro.workloads.base import DatasetSize, WorkloadParams


@dataclass(frozen=True)
class MotivationStats:
    """The motivation numbers of one recorded store stream."""

    #: Figure 3's columns as fractions of all stores, First Write first.
    write_distance: "OrderedDict[str, float]"
    #: Figure 5: clean bytes over all bytes the stores wrote.
    clean_byte_fraction: float
    #: Table II: fraction of the non-silent stores per DLDC pattern.
    pattern_fractions: "OrderedDict[str, float]"
    #: Stores hitting a word their own transaction already wrote.
    rewrite_fraction: float


def _repeats(group: np.ndarray, addr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The stores' stable sort order by (group, word), and for each store
    in that order whether its group wrote its word earlier."""
    order = np.lexsort((addr, group))
    group, addr = group[order], addr[order]
    repeat = np.zeros(order.size, dtype=bool)
    repeat[1:] = (group[1:] == group[:-1]) & (addr[1:] == addr[:-1])
    return order, repeat


def _write_distance(core: np.ndarray, addr: np.ndarray) -> "OrderedDict[str, float]":
    # Each thread's stores count from 0 in its own stream.
    counter = np.empty(core.size, dtype=np.int64)
    for c in np.unique(core):
        mine = core == c
        counter[mine] = np.arange(int(mine.sum()))
    order, repeat = _repeats(core, addr)
    distances = (np.diff(counter[order]) - 1)[repeat[1:]]
    histogram = Histogram()
    for value, count in zip(*np.unique(distances, return_counts=True)):
        histogram.observe(int(value), int(count))
    total = core.size or 1
    out: "OrderedDict[str, float]" = OrderedDict()
    out["First Write"] = (core.size - distances.size) / total
    for label, count in histogram.counts().items():
        out[label] = count / total
    return out


def _pattern_fractions(new: List[int], masks: List[int]) -> "OrderedDict[str, float]":
    counts: "OrderedDict[str, int]" = OrderedDict(
        (name, 0) for name in PATTERN_NAMES.values()
    )
    counts["uncompressed"] = 0
    for word, mask in zip(new, masks):
        if mask:
            match = dldc_compress_pattern(select_bytes(word, mask))
            counts["uncompressed" if match is None else PATTERN_NAMES[match[0]]] += 1
    total = sum(counts.values()) or 1
    return OrderedDict((name, count / total) for name, count in counts.items())


def motivation_stats(trace: StoreTrace, nvmm_base: int) -> MotivationStats:
    """Every motivation number of ``trace``'s transactional stores.

    ``nvmm_base`` is the recording config's: stores at or above it are
    the persistent ones, and the trace holds one old/new pair for each.
    Raises :class:`~repro.replay.TraceError` when the two do not line up.
    """
    kinds, addrs = trace.op_kind, trace.op_addr
    at = np.flatnonzero(
        ((kinds == OP_STORE) | (kinds == OP_STORE_NT))
        & (addrs >= np.uint64(nvmm_base))
    )
    old, new = trace.pair_old, trace.pair_new
    if at.size != new.size:
        raise TraceError(
            "trace has %d persistent-store ops but %d old/new pairs "
            "(stores at or above %#x)" % (at.size, new.size, nvmm_base)
        )
    mismatched = np.flatnonzero(trace.op_val[at] != new)
    if mismatched.size:
        raise TraceError(
            "old/new pair %d stores %#x but its op stores %#x"
            % (mismatched[0], int(new[mismatched[0]]),
               int(trace.op_val[at[mismatched[0]]]))
        )
    addr = addrs[at]
    tx = np.searchsorted(trace.tx_start.astype(np.int64), at, side="right") - 1
    new_words = new.tolist()
    masks = [dirty_byte_mask(o, w) for o, w in zip(old.tolist(), new_words)]
    n = int(at.size)
    dirty_bytes = sum(mask.bit_count() for mask in masks)
    return MotivationStats(
        write_distance=_write_distance(trace.tx_core[tx], addr),
        clean_byte_fraction=(
            (WORD_BYTES * n - dirty_bytes) / (WORD_BYTES * n) if n else 0.0
        ),
        pattern_fractions=_pattern_fractions(new_words, masks),
        rewrite_fraction=int(_repeats(tx, addr)[1].sum()) / n if n else 0.0,
    )


def _recorded_stats(
    workload_name: str,
    n_transactions: int,
    n_threads: int,
    params: Optional[WorkloadParams],
    config: Optional[SystemConfig],
) -> MotivationStats:
    """Record one FWB-CRADE cell and read its motivation numbers.

    Omitted ``params``/``config`` take the grid defaults, as in every
    other cell.
    """
    dataset = params.dataset if params is not None else DatasetSize.SMALL
    trace, _result, system = record_trace(
        "FWB-CRADE", workload_name, dataset, config=config, params=params,
        n_threads=n_threads, n_transactions=n_transactions,
    )
    return motivation_stats(trace, system.config.nvmm_base)


def write_distance_distribution(
    workload_name: str,
    n_transactions: int = 300,
    n_threads: int = 4,
    params: Optional[WorkloadParams] = None,
    config: Optional[SystemConfig] = None,
) -> "OrderedDict[str, float]":
    """Figure 3: the write-distance distribution, First Write included."""
    return _recorded_stats(
        workload_name, n_transactions, n_threads, params, config
    ).write_distance


def clean_byte_percentage(
    workload_name: str,
    n_transactions: int = 300,
    n_threads: int = 4,
    params: Optional[WorkloadParams] = None,
    config: Optional[SystemConfig] = None,
) -> float:
    """Figure 5: percentage (0-100) of clean bytes among transactional updates."""
    return 100.0 * _recorded_stats(
        workload_name, n_transactions, n_threads, params, config
    ).clean_byte_fraction


def dldc_pattern_census(
    workload_names,
    n_transactions: int = 200,
    n_threads: int = 4,
    params: Optional[WorkloadParams] = None,
    config: Optional[SystemConfig] = None,
) -> "OrderedDict[str, float]":
    """Table II: per-pattern fractions of dirty log data, averaged over
    workloads (the table's last column, "percentage of dirty log data
    that can be compressed with the given pattern")."""
    totals: "OrderedDict[str, float]" = OrderedDict()
    n_workloads = 0
    for name in workload_names:
        fractions = _recorded_stats(
            name, n_transactions, n_threads, params, config
        ).pattern_fractions
        for pattern, fraction in fractions.items():
            totals[pattern] = totals.get(pattern, 0.0) + fraction
        n_workloads += 1
    if n_workloads == 0:
        raise ValueError("no workloads given")
    return OrderedDict(
        (pattern, value / n_workloads) for pattern, value in totals.items()
    )
