"""Record -> replay is bit-exact against direct re-execution.

The replay subsystem (:mod:`repro.replay`) claims a recorded trace can
stand in for the workload: same RunResult, same NVM image, same trace
events, same crash-recovery and fault-sweep outcomes, with or without
the vectorized codec prewarm.  These tests pin that claim across the
four logger families of the paper's evaluation, plus the golden trace
digest (regenerate with ``tests/make_golden_replay.py``) and the
machine-reuse regression for back-to-back replays.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.designs import make_system
from repro.core.system import CrashInjected
from repro.faultinject.sweep import (
    SweepOptions,
    run_sweep,
    sweep_system_config,
)
from repro.replay import record_trace, replay_trace
from repro.replay.prewarm import prewarm_codecs
from repro.replay.replayer import apply_trace_setup, trace_transaction_bodies
from repro.trace.bus import TraceConfig
from repro.workloads.base import WorkloadParams, make_workload
from tests.conftest import tiny_config

#: The four logger families of the paper's evaluation.
DESIGNS = ("MorLog-SLDE", "FWB-CRADE", "Undo-CRADE", "Redo-CRADE")

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "replay_trace.json")

N_TX = 40
N_THREADS = 2


def cell_params(seed=11):
    return WorkloadParams(initial_items=48, key_space=96, seed=seed)


def record_cell(design, workload="hash", seed=11, n_tx=N_TX, config=None):
    """Record one tiny grid cell; returns (trace, result, system)."""
    return record_trace(
        design,
        workload,
        config=config if config is not None else tiny_config(),
        params=cell_params(seed),
        n_transactions=n_tx,
        n_threads=N_THREADS,
    )


def direct_run(design, workload="hash", seed=11, n_tx=N_TX, trace_config=None):
    system = make_system(design, tiny_config(), trace=trace_config)
    result = system.run(
        make_workload(workload, cell_params(seed)), n_tx, N_THREADS
    )
    return system, result


def nvm_image(system):
    return {
        addr: s.logical
        for addr, s in system.controller.nvm.array.snapshot().items()
    }


def assert_results_equal(a, b):
    assert a.transactions == b.transactions
    assert a.elapsed_ns == b.elapsed_ns
    assert a.stats == b.stats


class TestSameDesignBitExact:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_replay_equals_direct_run(self, design):
        trace, recorded_result, recorded_sys = record_cell(design)
        direct_sys, direct_result = direct_run(design)

        # Recording is inert: the recorded run IS a direct run.
        assert_results_equal(recorded_result, direct_result)
        assert nvm_image(recorded_sys) == nvm_image(direct_sys)

        replay_sys = make_system(design, tiny_config())
        replayed = replay_trace(replay_sys, trace)
        assert_results_equal(replayed, direct_result)
        assert nvm_image(replay_sys) == nvm_image(direct_sys)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_prewarm_is_result_inert(self, design):
        trace, _result, _sys = record_cell(design)
        warm_sys = make_system(design, tiny_config())
        cold_sys = make_system(design, tiny_config())
        warm = replay_trace(warm_sys, trace, prewarm=True)
        cold = replay_trace(cold_sys, trace, prewarm=False)
        assert_results_equal(warm, cold)
        assert nvm_image(warm_sys) == nvm_image(cold_sys)

    def test_prewarm_actually_seeds_and_hits(self):
        trace, _result, _sys = record_cell("MorLog-SLDE")
        system = make_system("MorLog-SLDE", tiny_config())
        stats = prewarm_codecs(system, trace)
        assert stats["pairs"] > 0
        assert stats["slde_seeded"] > 0
        assert stats["data_seeded"] > 0
        system2 = make_system("MorLog-SLDE", tiny_config())
        replay_trace(system2, trace, prewarm=True)
        memo_stats = system2.controller.nvm.log_codec.memo_stats()
        assert memo_stats["log"]["hits"] > 0

    def test_trace_event_streams_identical(self):
        trace, _result, _sys = record_cell("MorLog-SLDE")
        direct_sys, _ = direct_run(
            "MorLog-SLDE", trace_config=TraceConfig(enabled=True, capacity=0)
        )
        replay_sys = make_system(
            "MorLog-SLDE", tiny_config(),
            trace=TraceConfig(enabled=True, capacity=0),
        )
        replay_trace(replay_sys, trace)
        assert list(replay_sys.tracer.events) == list(direct_sys.tracer.events)


class TestCrossDesignReplay:
    def test_one_trace_scores_every_design_deterministically(self):
        # The paper's Fig 12/13 semantics: one recorded traffic pattern,
        # scored by every design.  Cross-design replay has no direct-run
        # twin (dispatch interleaving is timing-dependent), so the pinned
        # property is determinism: two fresh replays agree exactly.
        trace, _result, _sys = record_cell("MorLog-SLDE")
        elapsed = {}
        for design in DESIGNS:
            sys_a = make_system(design, tiny_config())
            sys_b = make_system(design, tiny_config())
            a = replay_trace(sys_a, trace)
            b = replay_trace(sys_b, trace, prewarm=False)
            assert_results_equal(a, b)
            assert nvm_image(sys_a) == nvm_image(sys_b)
            elapsed[design] = a.elapsed_ns
        # The designs are genuinely different machines.
        assert len(set(elapsed.values())) > 1


def run_crashing(system, schedule, crash_at):
    """Dispatch (core, body) pairs until the ``crash_at``-th commit point."""
    counter = [0]

    def hook():
        counter[0] += 1
        if counter[0] >= crash_at:
            raise CrashInjected()

    system.crash_hook = hook
    try:
        for core, body in schedule:
            system.run_transaction(core, body)
    except CrashInjected:
        pass
    finally:
        system.crash_hook = None


class TestCrashRecoveryEquality:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_crashed_replay_recovers_identically(self, design):
        crash_at = 25
        trace, _result, _sys = record_cell(design, seed=5)

        # Direct side: mirror System.run's dispatch loop so the recorded
        # schedule and this one are the same stream.
        direct_sys = make_system(design, tiny_config())
        workload = make_workload("hash", cell_params(seed=5))
        workload.setup(direct_sys, N_THREADS)
        direct_sys.reset_measurement()
        direct_sys._active_threads = N_THREADS

        def direct_schedule():
            for _ in range(N_TX):
                core = min(range(N_THREADS),
                           key=direct_sys.core_time_ns.__getitem__)
                yield core, workload.transaction(core)

        run_crashing(direct_sys, direct_schedule(), crash_at)
        direct_state = direct_sys.recover(verify_decode=True)

        # Replay side: same machine state rebuilt from the trace.
        replay_sys = make_system(design, tiny_config())
        apply_trace_setup(replay_sys, trace)
        replay_sys.reset_measurement()
        replay_sys._active_threads = N_THREADS
        schedule = zip(trace.tx_core.tolist(), trace_transaction_bodies(trace))
        run_crashing(replay_sys, schedule, crash_at)
        replay_state = replay_sys.recover(verify_decode=True)

        assert replay_state.committed_txids == direct_state.committed_txids
        assert replay_state.persisted_txids == direct_state.persisted_txids
        assert replay_state.redone_words == direct_state.redone_words
        assert replay_state.undone_words == direct_state.undone_words
        assert nvm_image(replay_sys) == nvm_image(direct_sys)


class TestFaultSweepEquality:
    @pytest.mark.parametrize("alias,design",
                             [("morlog", "MorLog-SLDE"), ("fwb", "FWB-CRADE")])
    def test_sweep_from_trace_equals_direct_sweep(self, alias, design):
        options = SweepOptions(workload="hash", transactions=4, threads=2,
                               seed=3, budget=12)
        trace, _result, _sys = record_trace(
            design,
            options.workload,
            config=sweep_system_config(),
            params=WorkloadParams(
                initial_items=options.initial_items,
                key_space=options.key_space,
                seed=options.seed,
            ),
            n_transactions=options.transactions,
            n_threads=options.threads,
        )
        direct = run_sweep(alias, options)
        replayed = run_sweep(alias, options, trace=trace)
        assert replayed.ok == direct.ok
        assert replayed.total_events == direct.total_events
        assert replayed.checked_events == direct.checked_events
        assert replayed.per_point == direct.per_point
        assert replayed.counterexample == direct.counterexample


class TestMachineReuse:
    """Regression: replay must cold-reset a reused machine (satellite 4)."""

    def test_back_to_back_replays_match_fresh_systems(self):
        trace_a, _r, _s = record_cell("MorLog-SLDE", workload="hash", seed=11)
        trace_b, _r, _s = record_cell("MorLog-SLDE", workload="queue", seed=7)

        fresh_a = replay_trace(make_system("MorLog-SLDE", tiny_config()), trace_a)
        fresh_b = replay_trace(make_system("MorLog-SLDE", tiny_config()), trace_b)

        reused = make_system("MorLog-SLDE", tiny_config())
        assert_results_equal(replay_trace(reused, trace_a), fresh_a)
        # No tx-table, FWB-schedule or log-region residue may leak into
        # the second replay.
        assert_results_equal(replay_trace(reused, trace_b), fresh_b)
        fresh_b_sys = make_system("MorLog-SLDE", tiny_config())
        replay_trace(fresh_b_sys, trace_b)
        assert len(reused._pending_lines) == len(fresh_b_sys._pending_lines)

    def test_direct_run_then_replay_and_back(self):
        trace, _result, _sys = record_cell("FWB-CRADE")
        fresh_replay = replay_trace(make_system("FWB-CRADE", tiny_config()),
                                    trace)
        _, fresh_run = direct_run("FWB-CRADE")

        mixed = make_system("FWB-CRADE", tiny_config())
        first = mixed.run(make_workload("hash", cell_params()), N_TX, N_THREADS)
        assert_results_equal(first, fresh_run)
        assert_results_equal(replay_trace(mixed, trace), fresh_replay)
        again = mixed.run(make_workload("hash", cell_params()), N_TX, N_THREADS)
        assert_results_equal(again, fresh_run)


# ---------------------------------------------------------------------------
# Golden trace: the canonical recorded cell's digest and result summary.
# ---------------------------------------------------------------------------

def make_golden_document():
    """The golden replay contract (used by tests/make_golden_replay.py)."""
    trace, result, _system = record_cell("MorLog-SLDE")
    return {
        "design": "MorLog-SLDE",
        "workload": "hash",
        "digest": trace.digest(),
        "n_transactions": trace.n_transactions,
        "n_ops": trace.n_ops,
        "n_setup_stores": int(trace.setup_addr.size),
        "n_store_pairs": int(trace.pair_old.size),
        "result": {
            "transactions": result.transactions,
            "elapsed_ns": result.elapsed_ns,
            "stats": result.stats,
        },
    }


class TestGoldenTrace:
    def test_recorded_trace_matches_golden(self):
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
        document = json.loads(json.dumps(make_golden_document(),
                                         sort_keys=True))
        assert document == golden, (
            "recorded trace diverged from tests/golden/replay_trace.json; "
            "if the change is intended, regenerate with "
            "`PYTHONPATH=src python tests/make_golden_replay.py`"
        )

    def test_golden_trace_replays_to_golden_result(self):
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
        trace, _result, _system = record_cell("MorLog-SLDE")
        system = make_system("MorLog-SLDE", tiny_config())
        replayed = replay_trace(system, trace)
        assert replayed.transactions == golden["result"]["transactions"]
        assert replayed.elapsed_ns == golden["result"]["elapsed_ns"]
        assert replayed.stats == golden["result"]["stats"]


# ---------------------------------------------------------------------------
# Trace digests do not depend on the process's string-hash salt.
# ---------------------------------------------------------------------------

_DIGEST_SCRIPT = """
from repro.replay import record_trace
from repro.workloads.base import WorkloadParams
from tests.conftest import tiny_config
trace, _result, _system = record_trace(
    "MorLog-SLDE", "tpcc", config=tiny_config(),
    params=WorkloadParams(initial_items=48, key_space=96, seed=11),
    n_transactions=8, n_threads=2,
)
print(trace.digest())
"""


def _digest_in_subprocess(hash_seed: str) -> str:
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT], env=env, cwd=root,
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def test_tpcc_digest_is_stable_across_hash_seeds():
    # The TPC-C setup image once stored hash(("item", i)), which str
    # hashing salts per process; digest-keyed caches then never hit.
    assert _digest_in_subprocess("1") == _digest_in_subprocess("2")
