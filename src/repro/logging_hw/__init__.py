"""Hardware logging designs (paper sections II, III and V).

- :mod:`repro.logging_hw.entries` — log entry / commit record formats
  (Figure 7) and their packing into 64-bit log-region words.
- :mod:`repro.logging_hw.region` — the single-consumer single-producer
  Lamport circular log region with torn bits and durable head pointer,
  and the per-thread region set of distributed logs.
- :mod:`repro.logging_hw.buffers` — the volatile FIFO log buffers with
  coalescing, age-based eager eviction and silent-entry dropping.
- :mod:`repro.logging_hw.base` — the persist steps every design shares
  (entry and commit-record writes, WAL flush, forced write-back at
  commit, commit tail) and the single-buffer logger of FWB, undo-only
  and redo-only logging.
- :mod:`repro.logging_hw.fwb` — the FWB undo+redo baseline (Ogleari et
  al., HPCA 2018), the paper's state-of-the-art comparison point.
- :mod:`repro.logging_hw.morlog` — morphable logging: eager undo / lazy
  redo write-back, the Figure 8 state machine, and both commit protocols.
- :mod:`repro.logging_hw.undo_only`, :mod:`repro.logging_hw.redo_only` —
  the Figure 1(c)/(d) ablation baselines.
- :mod:`repro.logging_hw.incll`, :mod:`repro.logging_hw.paging`,
  :mod:`repro.logging_hw.checkpoint` — the extension designs: in-cache-line
  logging, copy-on-write paging, checkpointing with log compaction.
- :mod:`repro.logging_hw.recovery` — crash recovery for both protocols.
"""

from repro.logging_hw.entries import CommitRecord, EntryType, LogEntry
from repro.logging_hw.region import LogRegion
from repro.logging_hw.buffers import BufferedEntry, LogBuffer
from repro.logging_hw.base import HardwareLogger, TransactionInfo
from repro.logging_hw.fwb import FwbLogger
from repro.logging_hw.morlog import MorLogLogger
from repro.logging_hw.undo_only import UndoOnlyLogger
from repro.logging_hw.redo_only import RedoOnlyLogger
from repro.logging_hw.recovery import RecoveredState, recover

__all__ = [
    "CommitRecord",
    "EntryType",
    "LogEntry",
    "LogRegion",
    "BufferedEntry",
    "LogBuffer",
    "HardwareLogger",
    "TransactionInfo",
    "FwbLogger",
    "MorLogLogger",
    "UndoOnlyLogger",
    "RedoOnlyLogger",
    "RecoveredState",
    "recover",
]
