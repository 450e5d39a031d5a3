"""The FWB undo+redo hardware logging baseline.

FWB ("steal but no force", Ogleari et al. HPCA 2018) is the paper's
state-of-the-art comparison point (section VI-A):

- every transactional store creates an undo+redo log entry (undo read from
  the L1 line, redo from the store itself);
- entries coalesce inside a single volatile FIFO log buffer and are
  written to NVMM when the buffer fills or after N cycles, N below the
  minimum cache-traversal latency (the write-ahead guarantee);
- commit persists the transaction's remaining entries plus a commit
  record and waits for them to reach the persistence domain;
- in-place data steal/no-force: cache lines write back whenever the
  hierarchy pleases, and commit never waits for them.

The evaluated variants:

- ``FWB-CRADE``: :class:`FwbLogger`, 16-entry eager buffer, CRADE log codec;
- ``FWB-Unsafe``: :class:`FwbUnsafeLogger`, 48-entry buffer (undo+redo +
  redo sizes) without the age bound — entries may outlive the N-cycle
  bound, which is why the paper calls it unsafe;
- ``FWB-SLDE``: :class:`FwbLogger` with the SLDE log codec, which adds
  dirty flags to buffer entries and drops completely-clean entries.
"""

from repro.logging_hw.base import SingleBufferLogger
from repro.logging_hw.entries import EntryType


class FwbLogger(SingleBufferLogger):
    """Single-buffer undo+redo logging per store."""

    name = "fwb"
    entry_type = EntryType.UNDO_REDO


class FwbUnsafeLogger(FwbLogger):
    """FWB with the combined buffer size and no eager eviction bound."""

    eager = False
    combined_buffer = True
