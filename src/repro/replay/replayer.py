"""Re-driving a machine from a recorded trace.

:func:`replay_trace` is the replay-side twin of ``System.run``: it
rebuilds the pre-run memory image from the trace's setup stores, then
dispatches each recorded transaction on its recorded core, re-issuing
the recorded op stream through the normal :class:`TxContext` interface.
Everything below that interface — logger, caches, NVM timing, stats —
is the production path, untouched; same design and config therefore
produce a bit-identical RunResult, NVM image and event trace, while a
*different* design/config scores the identical store stream (the paper's
Fig 12/13 sweeps over one traffic pattern).

The only new cost model is "no cost": workload setup becomes a flat
array replay instead of Python data-structure construction, and the
optional codec prewarm (:mod:`repro.replay.prewarm`) batch-classifies
the trace's word pairs before the loop starts.  Both are result-inert.
"""

from typing import Callable, List

import numpy as np

from repro.core.system import RunResult
from repro.replay.container import (
    OP_COMPUTE,
    OP_LOAD,
    OP_STORE,
    OP_STORE_NT,
    StoreTrace,
    TraceError,
)


def apply_trace_setup(system, trace: StoreTrace) -> None:
    """Rebuild the pre-run memory image from the recorded setup stores.

    Setup stores are untimed and unlogged, so replaying them is pure
    data movement: the persistent/volatile split is one vectorized
    boundary compare (``is_persistent`` is ``addr >= nvmm_base``) and the
    NVMM side goes through :meth:`NvmArray.bulk_write_logical` instead of
    per-word ``setup_store`` calls.  With a recorder attached (recording
    a replay) the tap-firing scalar path is kept.
    """
    if system.recorder is not None:
        store = system.setup_store
        for addr, value in zip(trace.setup_addr.tolist(), trace.setup_val.tolist()):
            store(addr, value)
        return
    persistent = trace.setup_addr >= np.uint64(system.config.nvmm_base)
    system.controller.nvm.array.bulk_write_logical(
        trace.setup_addr[persistent].tolist(),
        trace.setup_val[persistent].tolist(),
    )
    if not persistent.all():
        volatile = ~persistent
        write = system.controller.dram.write_word
        for addr, value in zip(
            trace.setup_addr[volatile].tolist(),
            trace.setup_val[volatile].tolist(),
        ):
            write(addr, value)


def _make_body(ops) -> Callable:
    def body(ctx) -> None:
        for kind, addr, value in ops:
            if kind == OP_STORE:
                ctx.store(addr, value)
            elif kind == OP_LOAD:
                ctx.load(addr)
            elif kind == OP_STORE_NT:
                ctx.store_nt(addr, value)
            elif kind == OP_COMPUTE:
                ctx.compute(value)
            else:
                raise TraceError("unknown op kind %r in trace" % (kind,))

    return body


def trace_transaction_bodies(trace: StoreTrace) -> List[Callable]:
    """One ``body(ctx)`` callable per recorded transaction, in order."""
    kinds = trace.op_kind.tolist()
    addrs = trace.op_addr.tolist()
    values = trace.op_val.tolist()
    bodies = []
    for index in range(trace.n_transactions):
        lo, hi = trace.transaction_bounds(index)
        bodies.append(_make_body(list(zip(kinds[lo:hi], addrs[lo:hi], values[lo:hi]))))
    return bodies


def replay_trace(system, trace: StoreTrace, prewarm: bool = True) -> RunResult:
    """Execute ``trace`` on ``system``; the replay-side ``System.run``.

    Mirrors the run loop stage for stage (cold reset, setup, measurement
    reset, dispatch loop, drain) so a replayed same-design run is
    bit-identical to the recording run.  ``prewarm=False`` skips the
    vectorized codec prewarm (results never depend on it).
    """
    n_threads = trace.n_threads
    if n_threads > system.config.cores.n_cores:
        raise TraceError(
            "trace was recorded with %d threads; system has %d cores"
            % (n_threads, system.config.cores.n_cores)
        )
    if system._ran:
        system.reset_machine()
    system._ran = True
    apply_trace_setup(system, trace)
    system.reset_measurement()
    system._active_threads = n_threads
    if prewarm:
        from repro.replay.prewarm import prewarm_codecs

        prewarm_codecs(system, trace)
    bodies = trace_transaction_bodies(trace)
    cores = trace.tx_core.tolist()
    dispatched = 0
    for core, body in zip(cores, bodies):
        system.run_transaction(core, body)
        dispatched += 1
    elapsed = max(system.core_time_ns[:n_threads]) if n_threads else 0.0
    measured = system.stats.as_dict()
    end = system.logger.drain(elapsed)
    end = system.hierarchy.drain_all(end)
    if system._tx_table:
        system._truncate_log(end)
    return RunResult(
        transactions=dispatched,
        elapsed_ns=elapsed,
        stats=measured,
    )
