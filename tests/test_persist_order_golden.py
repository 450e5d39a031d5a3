"""Golden persist order for every registered design, across logging configs.

``nvm_images.json`` pins the final NVM state of the default config only;
this file pins *how* each design gets there, cell by cell:

- the crash-event stream (point and detail of every fired crash point,
  in firing order), which is the persist order of log entries, commit
  records, write-ahead flushes, forced and staged write-backs;
- the trace-bus events (name, category, time, correlation keys, args);
- the ``RunResult`` stats and elapsed time;
- the canonical NVM image after the run drained.

Workload cells run hash (24 tx) and TPC-C (4 tx) on 2 threads of
``tiny_config`` under four logging configs (the default, a short FWB
interval, distributed logs, ``tx-table`` truncation; InCLL-CRADE and
CoW-Page reject the last) and, for the MorLog designs, two more (no redo
buffer, ``unsafe_llc_redo_discard``).  Three hand-made transactions per
design run under the fault-injection tests' pressure caches, where one
transaction overflows the LLC: a same-set body that makes write-backs
overtake buffered entries, a 64-line body, and a non-temporal store with
a re-stored word.  Together the cells fire every crash point.

Regenerate after an *intended* change to persist order with:

    PYTHONPATH=src python tests/make_golden_persist_order.py
"""

import functools
import hashlib
import json
import os

import pytest

from repro.common.bitops import WORD_BYTES
from repro.core.designs import available_designs, make_system
from repro.faultinject.plan import CRASH_POINTS, CountingPlan
from repro.trace import TraceConfig
from repro.workloads.base import WorkloadParams, make_workload
from tests.conftest import tiny_config
from tests.test_faultinject import _pressure_config
from tests.test_nvm_golden import canonical_image

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "persist_order.json")

DESIGNS = available_designs(include_ablation=True, include_extensions=True)
MORLOG_DESIGNS = ("MorLog-CRADE", "MorLog-SLDE", "MorLog-DP")
#: Designs whose durable side state needs the fwb-scan truncation horizon.
NO_TX_TABLE = ("InCLL-CRADE", "CoW-Page")
N_TX = {"hash": 24, "tpcc": 4}
N_THREADS = 2

CONFIGS = {
    "default": {},
    "fwb-2000": {"fwb_interval_cycles": 2_000},
    "distributed": {"distributed_logs": True},
    "tx-table": {"truncation": "tx-table"},
}
MORLOG_CONFIGS = {
    "no-redo-buffer": {"redo_buffer_entries": 0},
    "unsafe-llc-discard": {"unsafe_llc_redo_discard": True},
}


def _one_set(ctx, base):
    # 512-byte stride: every line maps to set 0 of all three levels, and
    # 12 lines overflow the set's 2 + 2 + 4 ways, so write-backs come
    # while entries are still buffered.
    for r in range(3):
        for k in range(12):
            ctx.store(base + k * 512, r * 12 + k + 1)


def _llc_overflow(ctx, base):
    for i in range(64):  # four times the LLC
        ctx.store(base + i * 64, i + 1)


def _nt_and_restore(ctx, base):
    ctx.store_nt(base, 0x1234)
    ctx.store(base + 64, 0xAAAA)
    # Churn the undo+redo buffer so the first entry persists, then
    # re-store its word (MorLog: URLOG -> ULOG, drained at commit).
    for i in range(1, 24):
        ctx.store(base + 64 + i * WORD_BYTES, i)
    ctx.store(base + 64, 0xBBBB)
    ctx.store_nt(base + WORD_BYTES, 0x5678)


BODIES = {
    "one-set": _one_set,
    "llc-overflow": _llc_overflow,
    "nt-restore": _nt_and_restore,
}


def _cells():
    cells = []
    for design in DESIGNS:
        configs = dict(CONFIGS)
        if design in NO_TX_TABLE:
            del configs["tx-table"]
        if design in MORLOG_DESIGNS:
            configs.update(MORLOG_CONFIGS)
        for workload in N_TX:
            for config in configs:
                cells.append("%s/%s/%s" % (design, workload, config))
        for body in BODIES:
            cells.append("%s/tx/%s" % (design, body))
    return tuple(cells)


CELLS = _cells()


def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _event_rows(bus) -> list:
    return [
        [e.name, e.category, e.ts_ns, e.core, e.txid, e.addr, e.dur_ns,
         dict(e.args)]
        for e in bus.events
    ]


def _run_workload(system, workload: str) -> object:
    params = WorkloadParams(initial_items=48, key_space=96, seed=11)
    return system.run(make_workload(workload, params), N_TX[workload],
                      N_THREADS)


def _run_body(system, body) -> object:
    system.start_run(N_THREADS, lambda: None)
    system.run_transaction(0, lambda ctx: body(ctx, system.config.nvmm_base))
    result = system.measured(1)
    system.drain(result.elapsed_ns)
    return result


@functools.lru_cache(maxsize=None)
def cell_digests(cell: str) -> dict:
    """Run one cell with a counting plan and an unbounded trace bus."""
    design, workload, variant = cell.split("/")
    trace = TraceConfig(enabled=True, capacity=0)
    if workload == "tx":
        system = make_system(design, _pressure_config(), trace=trace)
    else:
        overrides = dict(CONFIGS, **MORLOG_CONFIGS)[variant]
        system = make_system(design, tiny_config(**overrides), trace=trace)
    plan = CountingPlan(keep_trace=True)
    system.install_crash_plan(plan)
    if workload == "tx":
        result = _run_body(system, BODIES[variant])
    else:
        result = _run_workload(system, workload)
    return {
        "crash_events": _sha256([[e.point, e.detail] for e in plan.trace]),
        "trace_events": _sha256(_event_rows(system.tracer)),
        "result": _sha256([result.transactions, result.elapsed_ns,
                           result.stats]),
        "image": _sha256(canonical_image(system.controller.nvm.array)),
        "points": sorted(plan.per_point),
    }


def make_golden_document() -> dict:
    """The golden persist-order contract (tests/make_golden_persist_order.py)."""
    return {cell: cell_digests(cell) for cell in CELLS}


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_persist_order_matches_golden(golden, cell):
    assert cell_digests(cell) == golden[cell], (
        "persist order of %s diverged from tests/golden/persist_order.json; "
        "if the change is intended, regenerate with "
        "`PYTHONPATH=src python tests/make_golden_persist_order.py`" % cell
    )


def test_cells_fire_every_crash_point():
    fired = set()
    for cell in CELLS:
        fired.update(cell_digests(cell)["points"])
    assert fired == set(CRASH_POINTS)
