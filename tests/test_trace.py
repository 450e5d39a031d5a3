"""Unit and integration tests for the ``repro.trace`` subsystem.

Covers the bus (bounding, filtering, accounting), the event schema
validator, timeline assembly, Chrome export round-trips, the metrics
snapshot, and the host-side phase profiler.  The inertness guarantee —
traced runs bit-identical to traceless ones — lives in
``tests/test_trace_inert.py``.
"""

import copy
import json

import pytest

from repro.core.designs import make_system
from repro.trace import (
    CATEGORIES,
    EVENT_SCHEMA,
    PhaseProfiler,
    TraceBus,
    TraceConfig,
    TraceEvent,
    assemble_timelines,
    chrome_document,
    metrics_snapshot,
    parse_chrome_trace,
    profile_design,
    timeline_summary,
    validate_chrome_trace,
    validate_event,
    write_chrome_trace,
)
from repro.trace.export import read_event_lines, write_event_lines
from repro.workloads.base import WorkloadParams, make_workload
from tests.conftest import tiny_config


def run_traced(design="MorLog-SLDE", workload="sps", n_tx=30, threads=2,
               trace=None, **overrides):
    system = make_system(
        design, tiny_config(**overrides),
        trace=trace or TraceConfig(enabled=True),
    )
    wl = make_workload(workload, WorkloadParams(initial_items=48, key_space=96))
    result = system.run(wl, n_tx, threads)
    return system, result


class TestBus:
    def test_disabled_config_makes_no_bus(self):
        assert TraceConfig().make_bus() is None
        assert TraceConfig(enabled=True).make_bus() is not None

    def test_untraced_system_has_no_tracer(self):
        system = make_system("MorLog-SLDE", tiny_config())
        assert system.tracer is None
        assert system.logger.tracer is None

    def test_emit_appends_events_in_order(self):
        bus = TraceBus()
        bus.emit("tx-begin", "tx", 1.0, core=0, txid=7)
        bus.emit("tx-commit", "tx", 1.0, core=0, txid=7, dur_ns=4.0, n_stores=3)
        assert [e.name for e in bus.events] == ["tx-begin", "tx-commit"]
        assert bus.events[1].args["n_stores"] == 3
        assert len(bus) == 2 and bus.emitted == 2

    def test_args_may_share_emit_parameter_names(self):
        # Only txid/addr/ts_ns/dur_ns/core are reserved; an arg called
        # name, category or self is schema-valid and must reach the event.
        bus = TraceBus()
        bus.emit("log-wrap", "log", 2.0, name="x", category=1, self=True)
        event = bus.events[0]
        assert (event.name, event.category, event.ts_ns) == ("log-wrap", "log", 2.0)
        assert event.args == {"name": "x", "category": 1, "self": True}

    def test_ring_bounds_and_counts_drops(self):
        bus = TraceBus(TraceConfig(enabled=True, capacity=4))
        for i in range(10):
            bus.emit("log-wrap", "log", float(i))
        assert len(bus.events) == 4
        assert bus.dropped == 6 and bus.emitted == 10
        # The newest events are the ones retained.
        assert [e.ts_ns for e in bus.events] == [6.0, 7.0, 8.0, 9.0]

    def test_zero_capacity_is_unbounded(self):
        bus = TraceBus(TraceConfig(enabled=True, capacity=0))
        for i in range(100_000):
            bus.emit("log-wrap", "log", float(i))
        assert len(bus.events) == 100_000 and bus.dropped == 0

    def test_category_filter(self):
        bus = TraceBus(TraceConfig(enabled=True, categories=frozenset({"tx"})))
        bus.emit("tx-begin", "tx", 0.0, txid=1)
        bus.emit("log-wrap", "log", 0.0)
        assert [e.name for e in bus.events] == ["tx-begin"]
        assert bus.emitted == 1

    def test_clear_resets_accounting(self):
        bus = TraceBus(TraceConfig(enabled=True, capacity=2))
        for i in range(5):
            bus.emit("log-wrap", "log", float(i))
        bus.clear()
        assert len(bus) == 0 and bus.emitted == 0 and bus.dropped == 0

    def test_summary_is_sorted_and_complete(self):
        bus = TraceBus()
        bus.emit("word-state", "word-state", 0.0, **{"from": "CLEAN", "to": "DIRTY"})
        bus.emit("tx-begin", "tx", 0.0, txid=1)
        summary = bus.summary()
        assert summary["emitted"] == 2 and summary["retained"] == 2
        assert list(summary["by_category"]) == sorted(summary["by_category"])
        assert list(summary["by_name"]) == sorted(summary["by_name"])


class TestSchema:
    def test_every_schema_category_is_known(self):
        for name, spec in EVENT_SCHEMA.items():
            assert spec.category in CATEGORIES, name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown event"):
            validate_event(TraceEvent("not-a-thing", "tx", 0.0))

    def test_wrong_category_rejected(self):
        with pytest.raises(ValueError, match="category"):
            validate_event(TraceEvent("tx-begin", "log", 0.0))

    def test_missing_required_arg_rejected(self):
        with pytest.raises(ValueError, match="required arg"):
            validate_event(TraceEvent("word-state", "word-state", 0.0))

    def test_reserved_arg_key_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            validate_event(
                TraceEvent("tx-begin", "tx", 0.0, args={"txid": 3})
            )

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            validate_event(TraceEvent("tx-begin", "tx", -1.0))
        with pytest.raises(ValueError, match="negative"):
            validate_event(TraceEvent("tx-begin", "tx", 0.0, dur_ns=-1.0))


class TestTimeline:
    def _events(self):
        return [
            TraceEvent("tx-begin", "tx", 10.0, core=0, txid=1),
            TraceEvent("log-create", "log", 11.0, core=0, txid=1,
                       addr=64, args={"entry": "undo-redo"}),
            TraceEvent("log-wrap", "log", 12.0),  # machine-level, no txid
            TraceEvent("tx-begin", "tx", 12.0, core=1, txid=2),
            TraceEvent("tx-commit", "tx", 10.0, core=0, txid=1,
                       dur_ns=5.0, args={"n_stores": 1}),
            TraceEvent("tx-crash", "tx", 20.0, core=1, txid=2),
        ]

    def test_assembles_by_txid_in_order(self):
        timelines = assemble_timelines(self._events())
        assert list(timelines) == [1, 2]
        one = timelines[1]
        assert one.core == 0
        assert one.begin_ns == 10.0 and one.commit_ns == 15.0
        assert one.duration_ns == 5.0
        assert one.count("log-create") == 1
        assert one.first("log-create").addr == 64
        assert timelines[2].crashed and timelines[2].duration_ns is None

    def test_machine_events_excluded(self):
        timelines = assemble_timelines(self._events())
        assert all(
            e.txid is not None for t in timelines.values() for e in t.events
        )

    def test_summary_stable_and_correct(self):
        summary = timeline_summary(assemble_timelines(self._events()))
        assert summary["transactions"] == 2.0
        assert summary["committed"] == 1.0
        assert summary["crashed"] == 1.0
        assert summary["mean_duration_ns"] == 5.0
        assert list(summary) == sorted(summary)


class TestChromeExport:
    def _bus(self):
        system, _result = run_traced(n_tx=20)
        return system.tracer

    def test_document_shape(self):
        doc = chrome_document(self._bus().events, "MorLog-SLDE", "sps")
        assert doc["displayTimeUnit"] == "ns"
        assert doc["otherData"]["design"] == "MorLog-SLDE"
        records = doc["traceEvents"]
        assert records[0]["ph"] == "M"  # process_name metadata
        phases = {r["ph"] for r in records[1:]}
        assert phases <= {"X", "i"}

    def test_round_trip_is_exact(self):
        events = list(self._bus().events)
        doc = chrome_document(events, "MorLog-SLDE", "sps")
        assert parse_chrome_trace(doc) == events

    def test_round_trip_through_json_file(self, tmp_path):
        events = list(self._bus().events)
        path = str(tmp_path / "t.json")
        count = write_chrome_trace(path, events, "MorLog-SLDE", "sps")
        assert count == len(events)
        doc = json.load(open(path))
        assert validate_chrome_trace(doc) == len(events)
        assert parse_chrome_trace(doc) == events

    def test_write_is_atomic_no_residue(self, tmp_path):
        path = str(tmp_path / "t.json")
        write_chrome_trace(path, self._bus().events, "MorLog-SLDE", "sps")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]

    def test_validator_rejects_bad_documents(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "cat": "tx", "ts": 0.0,
                                  "name": "made-up", "args": {}}]}
            )

    def test_event_lines_round_trip(self, tmp_path):
        events = list(self._bus().events)
        path = str(tmp_path / "events.jsonl")
        assert write_event_lines(path, events) == len(events)
        assert read_event_lines(path) == events


class TestSldeDecisionTruth:
    """slde-decision events must match the bits actually written.

    Regression for a bug where the undo+redo conflict path emitted "dldc
    chosen" for a side that was subsequently replaced by the alternative
    codec, so traces and metrics disagreed with the NVM traffic.
    """

    def test_conflict_path_reports_replaced_side(self):
        from repro.common.config import EncodingConfig, NVMConfig
        from repro.common.stats import StatGroup
        from repro.nvm.module import NvmModule

        module = NvmModule(NVMConfig(), EncodingConfig(), StatGroup("t"))
        bus = TraceBus(TraceConfig(enabled=True))
        module.set_tracer(bus)
        # Both words are FPC-incompressible and differ in one byte, so
        # both sides prefer DLDC and the conflict path must demote one.
        undo, redo = 0x0123_4567_89AB_CDEF, 0x0123_4567_89AB_CDEE
        module.write_log_entry(
            0x100, [0x1], 0.0, undo=undo, redo=redo, dirty_mask=0x01
        )
        # The encodings stored for the undo and redo words.
        undo_enc, redo_enc = (module.array.read_word(a).encoded for a in (0x108, 0x110))
        assert {undo_enc.method, redo_enc.method} == {"dldc", "crade"}
        decisions = [e for e in bus.events if e.name == "slde-decision"]
        assert len(decisions) == 2
        for event, enc in zip(decisions, (undo_enc, redo_enc)):
            assert event.args["chosen"] == enc.method
            assert event.args["chosen_bits"] == enc.total_bits
            assert event.args["silent"] == enc.silent
        overridden = decisions[0 if undo_enc.method != "dldc" else 1]
        assert overridden.args["rejected"] == "dldc"


class TestSystemIntegration:
    def test_morlog_emits_expected_event_families(self):
        system, _result = run_traced(n_tx=40)
        names = {e.name for e in system.tracer.events}
        assert {"tx-begin", "tx-commit", "log-create", "undo-persist",
                "commit-persist", "log-append", "word-state",
                "slde-decision", "nvm-write"} <= names

    def test_word_state_transitions_follow_figure8(self):
        system, _result = run_traced(n_tx=40)
        seen = {
            (e.args["from"], e.args["to"])
            for e in system.tracer.events
            if e.name == "word-state"
        }
        allowed = {("CLEAN", "DIRTY"), ("DIRTY", "URLOG"), ("URLOG", "ULOG")}
        assert seen and seen <= allowed

    def test_every_emitted_event_is_schema_valid(self):
        system, _result = run_traced(n_tx=30)
        for event in system.tracer.events:
            validate_event(event)

    def test_fwb_emits_log_events_but_no_word_states(self):
        system, _result = run_traced(design="FWB-CRADE", n_tx=30)
        names = {e.name for e in system.tracer.events}
        assert "log-create" in names and "word-state" not in names

    def test_timestamps_are_monotone_per_transaction(self):
        system, _result = run_traced(n_tx=30)
        timelines = assemble_timelines(system.tracer.events)
        for timeline in timelines.values():
            if timeline.duration_ns is not None:
                assert timeline.duration_ns >= 0.0

    def test_one_bus_on_every_layer(self):
        system = make_system(
            "MorLog-SLDE", tiny_config(distributed_logs=True),
            trace=TraceConfig(enabled=True),
        )
        bus = system.tracer
        assert bus is not None
        assert system.logger.tracer is bus
        assert system.controller.nvm.tracer is bus
        assert len(system.log_region.regions) > 1
        assert all(r.tracer is bus for r in system.log_region.regions)

    def test_recovery_emits_recovery_event(self):
        system, _result = run_traced(n_tx=10)
        system.recover(verify_decode=False)
        recovery = [e for e in system.tracer.events if e.name == "recovery"]
        assert len(recovery) == 1
        assert recovery[0].args["committed"] >= 0


class TestMetricsSnapshot:
    def test_snapshot_shape_and_order(self):
        system, result = run_traced(n_tx=25)
        snap = metrics_snapshot(result, system.tracer, "MorLog-SLDE", "sps")
        assert snap["design"] == "MorLog-SLDE"
        assert snap["transactions"] == result.transactions
        assert list(snap["counters"]) == sorted(snap["counters"])
        assert list(snap["derived"]) == sorted(snap["derived"])
        assert snap["trace"]["timelines"]["committed"] == 25.0
        hist = snap["trace"]["histograms"]["tx_duration_us"]
        assert sum(hist.values()) == 25

    def test_snapshot_without_bus_has_no_trace_section(self):
        system, result = run_traced(n_tx=10)
        snap = metrics_snapshot(result, None, "MorLog-SLDE", "sps")
        assert "trace" not in snap

    def test_snapshot_marks_truncated_stream(self):
        # A full run's snapshot over an unbounded-enough ring: honest.
        system, result = run_traced(n_tx=10)
        snap = metrics_snapshot(result, system.tracer, "MorLog-SLDE", "sps")
        assert system.tracer.dropped == 0
        assert snap["trace"]["truncated"] is False
        # The same run through a tiny ring drops events, and the
        # snapshot must say its timelines/histograms are truncated.
        small, small_result = run_traced(
            n_tx=10, trace=TraceConfig(enabled=True, capacity=8))
        assert small.tracer.dropped > 0
        snap = metrics_snapshot(small_result, small.tracer, "MorLog-SLDE", "sps")
        assert snap["trace"]["truncated"] is True
        assert snap["trace"]["bus"]["dropped"] == small.tracer.dropped

    def test_chrome_export_carries_drop_metadata(self):
        system, _result = run_traced(
            n_tx=10, trace=TraceConfig(enabled=True, capacity=8))
        assert system.tracer.dropped > 0
        document = chrome_document(
            system.tracer.events, design="MorLog-SLDE", workload="sps",
            dropped=system.tracer.dropped,
        )
        assert document["otherData"]["truncated"] is True
        assert document["otherData"]["dropped_events"] == system.tracer.dropped
        # Default: a complete export says so.
        complete = chrome_document([], design="d", workload="w")
        assert complete["otherData"]["truncated"] is False
        assert complete["otherData"]["dropped_events"] == 0

    def test_snapshot_is_json_serializable(self):
        system, result = run_traced(n_tx=10)
        snap = metrics_snapshot(result, system.tracer, "MorLog-SLDE", "sps")
        assert json.loads(json.dumps(snap)) == snap


class TestProfiler:
    def test_profile_design_accounts_known_phases(self):
        result, report = profile_design(
            "MorLog-SLDE", "sps", config=tiny_config(),
            n_transactions=25, n_threads=2,
        )
        assert result.transactions == 25
        assert report.wall_seconds > 0.0
        assert {"logging", "nvm", "encoding", "cache"} <= set(report.phases)
        for stat in report.phases.values():
            assert stat.calls > 0 and stat.seconds >= 0.0
        # Exclusive attribution: phases never exceed the wall clock.
        assert report.accounted_seconds <= report.wall_seconds * 1.05

    def test_profiling_does_not_change_simulated_results(self):
        params = WorkloadParams(initial_items=48, key_space=96)
        profiled, _report = profile_design(
            "MorLog-SLDE", "sps", config=tiny_config(), params=params,
            n_transactions=25, n_threads=2,
        )
        plain_system, plain = run_traced(n_tx=25, trace=TraceConfig())
        assert plain_system.tracer is None
        assert profiled.stats == plain.stats
        assert profiled.elapsed_ns == plain.elapsed_ns

    def test_second_run_is_refused_and_the_profile_stands(self):
        system = make_system("MorLog-SLDE", tiny_config())
        profiler = PhaseProfiler().install(system)
        params = WorkloadParams(initial_items=64, key_space=128, seed=5)
        first = system.run(make_workload("hash", params), 40, n_threads=2)
        result_before = copy.deepcopy(first)
        calls = {phase: stat.calls for phase, stat in profiler.report().phases.items()}
        assert {"logging", "nvm", "encoding", "cache"} <= set(calls)
        second = make_workload("hash", params)
        setups = []
        second.setup = lambda *args: setups.append(args)
        with pytest.raises(RuntimeError, match="make_system"):
            system.run(second, 40, n_threads=2)
        assert setups == []
        assert first == result_before
        assert {phase: stat.calls for phase, stat in profiler.report().phases.items()} == calls

    def test_uninstall_restores_methods(self):
        system = make_system("MorLog-SLDE", tiny_config())
        original = system.logger.on_store
        profiler = PhaseProfiler().install(system)
        assert system.logger.on_store is not original
        profiler.uninstall()
        assert system.logger.on_store == original

    def test_report_dict_and_table_render(self):
        _result, report = profile_design(
            "FWB-CRADE", "queue", config=tiny_config(),
            n_transactions=10, n_threads=2,
        )
        flat = report.as_dict()
        assert list(flat) == sorted(flat)
        assert "wall_seconds" in flat and "workload_seconds" in flat
        text = report.format("unit test")
        assert "unit test" in text and "total (wall)" in text
