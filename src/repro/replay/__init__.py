"""Trace record/replay: capture a workload's store stream once, feed it
through any design/timing configuration without re-running the workload.

The paper's evaluation sweeps (Figs 12/13) score many design points over
identical store streams; this package is the interchange point that makes
that split explicit:

- :mod:`repro.replay.container` — the versioned columnar trace format
  (numpy columns, canonical SHA-256 digest for cache keying);
- :mod:`repro.replay.recorder` — :class:`TraceRecorder` taps on the
  :class:`~repro.core.system.System` plus :func:`record_trace`, which
  runs one cell with recording on;
- :mod:`repro.replay.replayer` — :func:`replay_trace`, which re-drives a
  machine from a trace through ``System``'s own run frame, bit for bit.

Record → replay equivalence (same design and config: identical
RunResult, NVM image, trace events, fault-sweep outcomes) is pinned by
``tests/test_replay_differential.py``.
"""

from repro.replay.container import (
    StoreTrace,
    TRACE_VERSION,
    TraceDigestError,
    TraceError,
    TraceFormatError,
    TraceVersionError,
    load_trace,
    save_trace,
)
from repro.replay.recorder import TraceRecorder, record_trace
from repro.replay.replayer import apply_trace_setup, replay_trace, trace_transaction_bodies

__all__ = [
    "StoreTrace",
    "TRACE_VERSION",
    "TraceError",
    "TraceFormatError",
    "TraceVersionError",
    "TraceDigestError",
    "load_trace",
    "save_trace",
    "TraceRecorder",
    "record_trace",
    "replay_trace",
    "apply_trace_setup",
    "trace_transaction_bodies",
]
