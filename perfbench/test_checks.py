"""Tests for the benchmark's own checks and tracer.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import pytest  # noqa: E402

from repro.core.system import RunResult  # noqa: E402
from repro.experiments.runner import default_config  # noqa: E402
from repro.replay import TraceRecorder  # noqa: E402

from perfbench import workloads  # noqa: E402
from perfbench.checks import (  # noqa: E402
    recovery_problems,
    result_problems,
    traffic_problems,
)
from perfbench.spans import SpanRecorder  # noqa: E402


def _recorded_and_replayed():
    params = workloads.seeded_params(5)
    record = workloads.direct_cell(
        "MorLog-SLDE", "ycsb", params, 12, 2, default_config(),
        recorder=TraceRecorder())
    replay = workloads.replay_cell("MorLog-SLDE", record.trace)
    return record, replay


def test_checks_pass_on_clean_output():
    record, replay = _recorded_and_replayed()
    assert result_problems("replay vs record", record.result, replay.result) == []
    assert recovery_problems(record.system) == []
    assert recovery_problems(replay.system) == []


def test_checks_report_corrupted_word_and_replayed_stat():
    record, replay = _recorded_and_replayed()
    system = replay.system
    state = system.recover(verify_decode=True)
    redone = [r for r in state.records
              if r.redo is not None and r.meta.txid in state.persisted_txids]
    addr = redone[-1].meta.addr
    system.controller.nvm.array.write_logical(
        addr, system.persistent_word(addr) ^ 0xFF)
    stats = dict(replay.result.stats)
    stats["bits_written"] += 1
    corrupted = RunResult(replay.result.transactions, replay.result.elapsed_ns, stats)

    problems = (recovery_problems(system)
                + result_problems("replay vs record", record.result, corrupted))
    assert any("recovery changed logged word %#x" % addr in p for p in problems)
    assert any("stat bits_written" in p for p in problems)


def test_traffic_accounting_check():
    class Result:
        arrivals, completed, dropped, p99_latency_ns = 10, 7, 2, 5.0

    latencies = [1.0] * 6 + [5.0]
    assert len(traffic_problems(Result(), latencies)) == 1
    Result.dropped = 3
    assert traffic_problems(Result(), latencies) == []
    assert len(traffic_problems(Result(), latencies[:-1])) == 1


def test_spans_are_exclusive():
    spans = SpanRecorder()

    def inner():
        return sum(range(20000))

    wrapped_inner = spans.wrap(inner, "inner")

    def outer():
        wrapped_inner()
        wrapped_inner()

    spans.wrap(outer, "outer")()
    assert spans.calls == {"inner": 2, "outer": 1}
    assert spans.self_s["outer"] == pytest.approx(
        spans.total_s["outer"] - spans.total_s["inner"])
    assert spans.span_calls("inner", "outer") == 3


@pytest.mark.parametrize("name", ["direct-macro", "replay-registry", "traffic-mix"])
def test_traced_run_matches_plain(monkeypatch, tmp_path, name):
    monkeypatch.setattr(workloads, "DIRECT_TX", {"ycsb": 8, "tpcc": 4})
    monkeypatch.setattr(workloads, "REPLAY_TX", 8)
    monkeypatch.setattr(workloads, "TRAFFIC_ARRIVALS", 40)
    outcome = workloads.WORKLOADS[name](3, 0.0, True, str(tmp_path))
    assert outcome.problems == []
    assert outcome.failed == 0 and outcome.attempted > 0
    assert outcome.tracer.calls["core.tx"] > 0
    assert outcome.overhead_pairs
    # Host metrics take each item's median repeat, so every round must
    # time every transaction, cell and set-up again.
    assert outcome.n_rounds >= 1
    for samples in (outcome.tx, outcome.cells, outcome.setup):
        assert samples
        assert all(len(times) >= outcome.n_rounds for times in samples.values())
    assert all(value > 0 for value in outcome.host_metrics().values())


def test_traffic_setup_stops_at_first_transaction(monkeypatch):
    monkeypatch.setattr(workloads, "TRAFFIC_ARRIVALS", 40)
    config = workloads.traffic_config(3, 0)
    run = workloads.fresh(
        lambda spans: workloads.traffic_cell(config, spans, setup_only=True), None)
    assert run.result is None
    assert run.probe.host_s == [] and run.setup_s > 0
