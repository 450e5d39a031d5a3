"""Recording a workload's store stream into a :class:`StoreTrace`.

A :class:`TraceRecorder` hangs off ``system.recorder`` and observes a
normal timed run from two vantage points:

- the :class:`~repro.core.transaction.TxContext` op hooks capture the
  *program* — the exact sequence of loads, stores, non-temporal stores
  and compute delays each transaction body issued — plus the setup-phase
  stores that build the pre-run memory image;
- the :class:`~repro.core.system.System` taps capture the *dispatch
  order* (which core ran each transaction, preserving the recording
  run's interleaving) and the old/new word of every persistent
  transactional store, which the motivation statistics
  (:mod:`repro.analysis.motivation`) read.

Recording does not perturb the run: the hooks only append to Python
lists, and the recorded run's RunResult is bit-identical to an
unrecorded one (pinned in ``tests/test_replay_differential.py``).
"""

from typing import Any, Dict, Optional

import numpy as np

from repro.replay.container import (
    OP_COMPUTE,
    OP_LOAD,
    OP_STORE,
    OP_STORE_NT,
    StoreTrace,
    TraceError,
)


class TraceRecorder:
    """Accumulates one run's store stream; ``finish`` yields the trace."""

    def __init__(self) -> None:
        self.setup_addr = []
        self.setup_val = []
        self.op_kind = []
        self.op_addr = []
        self.op_val = []
        self.tx_start = []
        self.tx_core = []
        self.pair_old = []
        self.pair_new = []

    # -- System taps ----------------------------------------------------

    def on_setup_store(self, addr: int, value: int) -> None:
        self.setup_addr.append(addr)
        self.setup_val.append(value)

    def on_tx_dispatch(self, core: int) -> None:
        self.tx_start.append(len(self.op_kind))
        self.tx_core.append(core)

    def on_tx_store(self, addr: int, old: int, new: int) -> None:
        self.pair_old.append(old)
        self.pair_new.append(new)

    # -- TxContext op taps ----------------------------------------------

    def on_load(self, addr: int) -> None:
        self.op_kind.append(OP_LOAD)
        self.op_addr.append(addr)
        self.op_val.append(0)

    def on_store(self, addr: int, value: int) -> None:
        self.op_kind.append(OP_STORE)
        self.op_addr.append(addr)
        self.op_val.append(value)

    def on_store_nt(self, addr: int, value: int) -> None:
        self.op_kind.append(OP_STORE_NT)
        self.op_addr.append(addr)
        self.op_val.append(value)

    def on_compute(self, cycles) -> None:
        if cycles != int(cycles) or cycles < 0:
            raise TraceError(
                "cannot record compute(%r): the trace op stream holds "
                "non-negative integer cycle counts" % (cycles,)
            )
        self.op_kind.append(OP_COMPUTE)
        self.op_addr.append(0)
        self.op_val.append(int(cycles))

    # -- finalization ---------------------------------------------------

    def finish(self, meta: Optional[Dict[str, Any]] = None) -> StoreTrace:
        """Freeze the accumulated stream into an immutable trace."""
        return StoreTrace(
            meta=dict(meta or {}),
            setup_addr=np.asarray(self.setup_addr, dtype="<u8"),
            setup_val=np.asarray(self.setup_val, dtype="<u8"),
            op_kind=np.asarray(self.op_kind, dtype="u1"),
            op_addr=np.asarray(self.op_addr, dtype="<u8"),
            op_val=np.asarray(self.op_val, dtype="<u8"),
            tx_start=np.asarray(self.tx_start, dtype="<u8"),
            tx_core=np.asarray(self.tx_core, dtype="<u4"),
            pair_old=np.asarray(self.pair_old, dtype="<u8"),
            pair_new=np.asarray(self.pair_new, dtype="<u8"),
        )


def record_trace(
    design: str,
    workload_name: str,
    dataset=None,
    scale=None,
    config=None,
    params=None,
    n_threads: Optional[int] = None,
    n_transactions: Optional[int] = None,
):
    """Run one grid cell with recording on; returns (trace, result, system).

    Resolves through :func:`repro.experiments.parallel.resolve_cell` and
    builds with :func:`repro.experiments.parallel.build_cell`, the
    builder of the one cell runner, so the recorded run's RunResult is
    the one the direct path would have produced.
    """
    from repro.experiments.parallel import build_cell, resolve_cell
    from repro.workloads.base import DatasetSize

    spec = resolve_cell(
        design,
        workload_name,
        dataset if dataset is not None else DatasetSize.SMALL,
        scale,
        config,
        params,
        n_transactions=n_transactions,
        n_threads=n_threads,
    )
    system, workload = build_cell(spec)
    recorder = TraceRecorder()
    system.recorder = recorder
    try:
        result = system.run(workload, spec.n_transactions, spec.n_threads)
    finally:
        system.recorder = None
    meta = {
        "design": design,
        "n_threads": spec.n_threads,
        "n_transactions": spec.n_transactions,
        "provenance": workload.trace_provenance(),
    }
    return recorder.finish(meta), result, system
