"""Record -> replay is bit-exact against direct re-execution.

The replay subsystem (:mod:`repro.replay`) claims a recorded trace can
stand in for the workload: same RunResult, same NVM image, same trace
events, same crash-recovery and fault-sweep outcomes.  These tests pin
that claim across the four logger families of the paper's evaluation,
plus recording a replay on every design, the golden trace digest
(regenerate with ``tests/make_golden_replay.py``) and replay's refusal
of a machine that already ran.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

from repro.core.designs import available_designs, make_system
from repro.core.system import CrashInjected
from repro.faultinject import CrashAtTxPoint
from repro.faultinject.sweep import (
    SweepOptions,
    run_sweep,
    sweep_system_config,
)
from repro.replay import TraceRecorder, record_trace, replay_trace
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
            b = replay_trace(sys_b, trace)
            assert_results_equal(a, b)
            assert nvm_image(sys_a) == nvm_image(sys_b)
            elapsed[design] = a.elapsed_ns
        # The designs are genuinely different machines.
        assert len(set(elapsed.values())) > 1


@pytest.fixture(scope="module")
def slde_trace():
    trace, _result, _sys = record_cell("MorLog-SLDE")
    return trace


class TestRecordingAReplay:
    @pytest.mark.parametrize("design", available_designs(True, True))
    def test_rerecorded_trace_equals_original(self, design, slde_trace):
        # A replay dispatches through the run loop's seam, so a recorder
        # on the replaying machine sees the recorded stream again, on
        # any design, and recording it leaves the result alone.
        system = make_system(design, tiny_config())
        system.recorder = TraceRecorder()
        recorded = replay_trace(system, slde_trace)
        again = system.recorder.finish(slde_trace.meta)
        assert again.digest() == slde_trace.digest()
        plain = replay_trace(make_system(design, tiny_config()), slde_trace)
        assert_results_equal(recorded, plain)


def run_crashing(system, schedule, crash_at):
    """Dispatch (core, body) pairs until the ``crash_at``-th commit point."""
    system.install_crash_plan(CrashAtTxPoint(crash_at))
    try:
        for core, body in schedule:
            system.run_transaction(core, body)
    except CrashInjected:
        pass
    finally:
        system.install_crash_plan(None)


class TestCrashRecoveryEquality:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_crashed_replay_recovers_identically(self, design):
        crash_at = 25
        trace, _result, _sys = record_cell(design, seed=5)

        # Direct side: mirror System.run's dispatch loop so the recorded
        # schedule and this one are the same stream.
        direct_sys = make_system(design, tiny_config())
        workload = make_workload("hash", cell_params(seed=5))
        direct_sys.start_run(
            N_THREADS, lambda: workload.setup(direct_sys, N_THREADS))

        def direct_schedule():
            for _ in range(N_TX):
                core = min(range(N_THREADS),
                           key=direct_sys.core_time_ns.__getitem__)
                yield core, workload.transaction(core)

        run_crashing(direct_sys, direct_schedule(), crash_at)
        direct_state = direct_sys.recover(verify_decode=True)

        # Replay side: same machine state rebuilt from the trace.
        replay_sys = make_system(design, tiny_config())
        replay_sys.start_run(
            N_THREADS, lambda: apply_trace_setup(replay_sys, trace))
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

    def test_sweep_rejects_trace_of_other_thread_count(self):
        # The sweep dispatches each recorded transaction on its recorded
        # core but schedules force-write-back scans on its own thread
        # count, so a mismatch would sweep a run unlike either.
        trace, _result, _sys = record_trace(
            "MorLog-SLDE", "hash", config=sweep_system_config(),
            n_transactions=6, n_threads=4,
        )
        options = SweepOptions(transactions=6, threads=2, seed=3, budget=12)
        with pytest.raises(ValueError, match="4 threads.*2"):
            run_sweep("morlog", options, trace=trace)


class TestSingleRun:
    def test_replay_after_run_is_refused_before_setup(self, monkeypatch):
        trace, _result, _sys = record_cell("FWB-CRADE")
        system, first = direct_run("FWB-CRADE")
        result_before = copy.deepcopy(first)
        image_before = nvm_image(system)
        stats_before = system.stats.as_dict()
        setups = []
        monkeypatch.setattr(
            "repro.replay.replayer.apply_trace_setup",
            lambda *args: setups.append(args),
        )
        with pytest.raises(RuntimeError, match="make_system"):
            replay_trace(system, trace)
        assert setups == []
        assert first == result_before
        assert nvm_image(system) == image_before
        assert system.stats.as_dict() == stats_before


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
