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
array install instead of Python data-structure construction, which is
result-inert.
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


def replay_trace(system, trace: StoreTrace) -> RunResult:
    """Execute ``trace`` on ``system``; the replay-side ``System.run``.

    Opens and closes the run through the same ``System`` calls as the
    run loop, and dispatches through ``dispatch_transaction``, so a
    replayed same-design run is bit-identical to the recording run and
    a recorder attached to ``system`` records the trace again.
    """
    if trace.n_threads > system.config.cores.n_cores:
        raise TraceError(
            "trace was recorded with %d threads; system has %d cores"
            % (trace.n_threads, system.config.cores.n_cores)
        )
    system.start_run(trace.n_threads, lambda: apply_trace_setup(system, trace))
    bodies = trace_transaction_bodies(trace)
    for core, body in zip(trace.tx_core.tolist(), bodies):
        system.dispatch_transaction(core, body)
    result = system.measured(len(bodies))
    system.drain(result.elapsed_ns)
    return result
