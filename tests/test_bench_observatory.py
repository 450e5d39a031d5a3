"""The benchmark observatory: records, store, comparator, scorecard.

Covers the contracts the benchmark harness and CI rely on:

- ``BenchRecord`` validation and JSON round-trip;
- trajectory files: index allocation, append atomicity under concurrent
  writers, schema validation on load;
- the statistical comparator (classification bands, paired-best repeat
  reduction, digest-aware pairing for multi-scale baselines);
- the paper-fidelity expectations (pass/drift/fail/missing);
- ``bench_util.emit`` (quiet control, returned paths, txt+json together);
- ``metrics_snapshot``'s ``memo`` key and ``duration_histogram`` edges;
- the ``repro bench`` CLI verbs, including the gate's exit codes.
"""

import json
import os
import threading

import pytest

import benchmarks.bench_util as bench_util
from repro.bench import (
    DEFAULT_TOLERANCE,
    HIGHER,
    IMPROVED,
    INFO,
    LOWER,
    REGRESSED,
    SKIPPED,
    UNCHANGED,
    BenchRecord,
    Expectation,
    append_records,
    best_of,
    classify,
    compare_records,
    current_run_path,
    evaluate_expectations,
    latest_run,
    list_runs,
    load_run,
    open_run,
    record,
    render_report,
    reset_current_run,
    scorecard_counts,
    write_result_json,
)
from repro.bench.expectations import DRIFT, FAIL, MISSING, PASS
from repro.cli import main


@pytest.fixture
def bench_dir(tmp_path, monkeypatch):
    """Point every trajectory write at a fresh directory."""
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_BENCH_RUN_FILE", raising=False)
    reset_current_run()
    yield tmp_path
    reset_current_run()


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def test_record_round_trips_through_json():
    rec = record(
        "fig13_write_traffic",
        "gmean_morlog_dp_vs_fwb",
        0.77,
        unit="ratio",
        direction=LOWER,
        tolerance=0.05,
        attachments={"metrics_snapshot": {"counters": {"a": 1}}},
    )
    clone = BenchRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
    assert clone == rec
    assert clone.key == "fig13_write_traffic/gmean_morlog_dp_vs_fwb"
    assert clone.gates
    assert clone.attachments["metrics_snapshot"]["counters"] == {"a": 1}


def test_record_fills_environmental_fields(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.25")
    rec = record("b", "m", 1.0)
    assert rec.scale == 0.25
    assert rec.unix_time > 0
    assert rec.host["cpu_count"] >= 1
    assert rec.config_digest  # default digest is filled in
    assert rec.direction == INFO and not rec.gates


def test_record_validation_rejects_bad_fields():
    with pytest.raises(ValueError):
        BenchRecord(benchmark="", metric="m", value=1.0)
    with pytest.raises(ValueError):
        BenchRecord(benchmark="b", metric="m", value=1.0, direction="sideways")
    with pytest.raises(ValueError):
        BenchRecord(benchmark="b", metric="m", value=1.0, tolerance=-0.1)


def test_effective_tolerance_defaults():
    assert BenchRecord("b", "m", 1.0).effective_tolerance() == DEFAULT_TOLERANCE
    assert BenchRecord("b", "m", 1.0, tolerance=0.0).effective_tolerance() == 0.0


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_open_run_allocates_sequential_indices(bench_dir):
    first = open_run()
    second = open_run()
    assert [os.path.basename(p) for p in (first, second)] == [
        "BENCH_1.json",
        "BENCH_2.json",
    ]
    assert list_runs() == [first, second]
    assert latest_run() == second


def test_current_run_is_memoized_per_process(bench_dir):
    path = current_run_path()
    assert current_run_path() == path
    assert os.path.basename(path) == "BENCH_1.json"


def test_run_file_pinning(bench_dir, monkeypatch):
    pinned = str(bench_dir / "BENCH_7.json")
    monkeypatch.setenv("REPRO_BENCH_RUN_FILE", pinned)
    assert current_run_path() == pinned
    append_records(current_run_path(), [record("b", "m", 1.0)])
    _header, records = load_run(pinned)
    assert [r.key for r in records] == ["b/m"]


def test_append_records_round_trip(bench_dir):
    path = open_run()
    recs = [
        record("b", "m1", 1.0, direction=HIGHER),
        record("b", "m2", 2.0, direction=LOWER),
    ]
    _path, total = append_records(path, recs)
    assert total == 2
    header, loaded = load_run(path)
    assert loaded == recs
    assert header["scale"] == pytest.approx(1.0)
    assert "host" in header and "started_unix_time" in header


def test_append_records_atomic_under_concurrent_writers(bench_dir):
    path = open_run()
    writers, per_writer = 8, 6
    errors = []

    def hammer(i):
        try:
            for j in range(per_writer):
                append_records(
                    path, [record("writer%d" % i, "m%d" % j, float(j))]
                )
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(i,)) for i in range(writers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    _header, records = load_run(path)  # valid JSON, nothing torn
    assert len(records) == writers * per_writer
    keys = {r.key for r in records}
    assert len(keys) == writers * per_writer  # no append lost
    assert not os.path.exists(path + ".lock")


def test_concurrent_open_run_never_shares_an_index(bench_dir):
    paths, errors = [], []
    lock = threading.Lock()

    def allocate():
        try:
            p = open_run()
            with lock:
                paths.append(p)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=allocate) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(set(paths)) == len(paths) == 8


def test_load_run_rejects_garbage(bench_dir):
    bad = bench_dir / "BENCH_9.json"
    bad.write_text(json.dumps({"schema_version": 999, "records": []}))
    with pytest.raises(ValueError, match="schema_version"):
        load_run(str(bad))
    worse = bench_dir / "notarun.json"
    worse.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="records"):
        load_run(str(worse))


def test_write_result_json_document_shape(tmp_path):
    path = str(tmp_path / "out.json")
    write_result_json(path, "bname", [record("bname", "m", 3.0)])
    doc = json.load(open(path))
    assert doc["benchmark"] == "bname"
    assert [r["metric"] for r in doc["records"]] == ["m"]


# ---------------------------------------------------------------------------
# Comparator
# ---------------------------------------------------------------------------


def test_classify_bands():
    assert classify(100.0, 104.0, HIGHER, 0.05) == UNCHANGED
    assert classify(100.0, 106.0, HIGHER, 0.05) == IMPROVED
    assert classify(100.0, 94.0, HIGHER, 0.05) == REGRESSED
    assert classify(100.0, 94.0, LOWER, 0.05) == IMPROVED
    assert classify(100.0, 106.0, LOWER, 0.05) == REGRESSED
    assert classify(8.0, 10.0, HIGHER, 0.25) == UNCHANGED  # band is inclusive
    assert classify(100.0, 150.0, INFO, 0.05) == SKIPPED
    assert classify(0.0, 1.0, HIGHER, 0.05) == SKIPPED  # zero baseline


def test_best_of_reduces_repeats_by_direction():
    highs = [BenchRecord("b", "m", v, direction=HIGHER) for v in (1.0, 3.0, 2.0)]
    lows = [BenchRecord("b", "m", v, direction=LOWER) for v in (2.0, 1.0, 3.0)]
    infos = [BenchRecord("b", "m", v, direction=INFO) for v in (5.0, 7.0)]
    assert best_of(highs).value == 3.0
    assert best_of(lows).value == 1.0
    assert best_of(infos).value == 7.0  # latest wins
    with pytest.raises(ValueError):
        best_of([])


def _rec(metric, value, direction=HIGHER, digest="d1", benchmark="b"):
    return BenchRecord(
        benchmark=benchmark,
        metric=metric,
        value=value,
        direction=direction,
        config_digest=digest,
    )


def test_compare_records_classifies_and_skips():
    baseline = [
        _rec("thr", 100.0),
        _rec("writes", 50.0, LOWER),
        _rec("wall", 3.0, INFO),
        _rec("other_scale", 10.0, digest="dX"),
    ]
    candidate = [
        _rec("thr", 120.0),
        _rec("writes", 70.0, LOWER),
        _rec("wall", 9.0, INFO),
        _rec("other_scale", 10.0, digest="dY"),
        _rec("brand_new", 1.0),
    ]
    report = compare_records(baseline, candidate)
    verdicts = {d.metric: d.verdict for d in report.deltas}
    assert verdicts == {
        "thr": IMPROVED,
        "writes": REGRESSED,
        "wall": SKIPPED,
        "other_scale": SKIPPED,  # digest mismatch
        # brand_new has no baseline: not compared at all
    }
    assert [d.metric for d in report.regressions] == ["writes"]
    assert "1 improved, 1 regressed" in report.summary()
    counts = report.counts()
    assert counts[SKIPPED] == 2 and counts[UNCHANGED] == 0


def test_compare_records_pairs_on_matching_digest():
    # A multi-scale baseline holds the same metric under two digests;
    # each candidate must be judged against its own scale's population.
    baseline = [
        _rec("thr", 100.0, digest="scale-small"),
        _rec("thr", 1000.0, digest="scale-large"),
    ]
    report = compare_records(
        baseline, [_rec("thr", 98.0, digest="scale-small")]
    )
    assert report.deltas[0].verdict == UNCHANGED
    assert report.deltas[0].baseline == 100.0
    report = compare_records(
        baseline, [_rec("thr", 940.0, digest="scale-large")]
    )
    assert report.deltas[0].verdict == REGRESSED
    assert report.deltas[0].baseline == 1000.0


def test_compare_records_repeats_reduce_before_classification():
    baseline = [_rec("thr", 100.0), _rec("thr", 90.0)]
    candidate = [_rec("thr", 60.0), _rec("thr", 101.0)]
    report = compare_records(baseline, candidate)
    # paired best: max(100, 90) vs max(60, 101) -> unchanged
    assert report.deltas[0].verdict == UNCHANGED


def test_tolerance_override_and_tight_bands():
    baseline = [_rec("thr", 100.0)]
    candidate = [_rec("thr", 101.0)]
    assert (
        compare_records(baseline, candidate).deltas[0].verdict == UNCHANGED
    )
    report = compare_records(baseline, candidate, tolerance_override=0.0)
    assert report.deltas[0].verdict == IMPROVED


# ---------------------------------------------------------------------------
# Expectations / scorecard
# ---------------------------------------------------------------------------


def test_expectation_statuses():
    exp = Expectation(
        id="x", paper="Fig. 0", description="d",
        benchmark="b", metric="m", low=1.0, slack=0.1,
    )
    assert exp.evaluate(1.5).status == PASS
    assert exp.evaluate(1.0).status == PASS  # bounds inclusive
    assert exp.evaluate(0.95).status == DRIFT  # within slack
    assert exp.evaluate(0.5).status == FAIL
    assert exp.evaluate(None).status == MISSING
    assert exp.bounds() == ">= 1"
    both = Expectation(
        id="y", paper="p", description="d", benchmark="b", metric="m",
        low=0.0, high=2.0, slack=0.5,
    )
    assert both.evaluate(2.4).status == DRIFT
    assert both.evaluate(3.0).status == FAIL
    assert both.bounds() == "[0, 2]"


def test_evaluate_expectations_uses_best_repeat():
    exps = (
        Expectation(
            id="a", paper="p", description="d",
            benchmark="b", metric="m", low=1.0,
        ),
        Expectation(
            id="b", paper="p", description="d",
            benchmark="b", metric="absent", low=1.0,
        ),
    )
    records = [
        BenchRecord("b", "m", 0.5, direction=HIGHER),
        BenchRecord("b", "m", 1.5, direction=HIGHER),
    ]
    results = evaluate_expectations(records, exps)
    assert [r.status for r in results] == [PASS, MISSING]
    counts = scorecard_counts(results)
    assert counts[PASS] == 1 and counts[MISSING] == 1


def test_render_report_contains_scorecard_and_records():
    records = [
        BenchRecord(
            "headline_claims", "throughput_improvement_pct", 72.5,
            unit="%", direction=HIGHER,
        )
    ]
    text = render_report(records, run_header={"scale": 0.1}, run_name="BENCH_1.json")
    assert "# Benchmark observatory report" in text
    assert "Paper-fidelity scorecard" in text
    assert "headline-throughput" in text
    assert "Recorded metrics" in text
    assert "BENCH_1.json" in text


# ---------------------------------------------------------------------------
# bench_util.emit
# ---------------------------------------------------------------------------


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_util, "RESULTS_DIR", str(tmp_path / "results"))
    return tmp_path / "results"


def test_emit_txt_only(results_dir, capsys):
    out = bench_util.emit("tbl", "a table")
    assert out.txt_path.endswith("tbl.txt")
    assert open(out.txt_path).read() == "a table\n"
    assert out.json_path is None and out.run_path is None
    assert "a table" in capsys.readouterr().out


def test_emit_quiet_flag_and_env(results_dir, capsys, monkeypatch):
    bench_util.emit("tbl", "quiet table", quiet=True)
    assert capsys.readouterr().out == ""
    monkeypatch.setenv("REPRO_BENCH_QUIET", "1")
    bench_util.emit("tbl", "quiet table")
    assert capsys.readouterr().out == ""
    bench_util.emit("tbl", "loud table", quiet=False)  # explicit beats env
    assert "loud table" in capsys.readouterr().out


def test_emit_with_records_writes_json_and_trajectory(
    results_dir, bench_dir, capsys
):
    recs = [record("tbl", "m", 4.2, direction=HIGHER)]
    out = bench_util.emit("tbl", "table", records=recs, quiet=True)
    assert out.json_path.endswith(os.path.join("results", "tbl.json"))
    doc = json.load(open(out.json_path))
    assert doc["records"][0]["value"] == 4.2
    assert os.path.dirname(out.run_path) == str(bench_dir)
    _header, loaded = load_run(out.run_path)
    assert loaded == recs
    # a second emit appends to the same run file
    out2 = bench_util.emit("tbl2", "table", records=recs, quiet=True)
    assert out2.run_path == out.run_path
    _header, loaded = load_run(out.run_path)
    assert len(loaded) == 2


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------


def _write_run(path, records):
    append_records(str(path), records)
    return str(path)


def test_cli_bench_compare_and_gate_pass(bench_dir, capsys):
    base = _write_run(bench_dir / "BENCH_1.json", [_rec("thr", 100.0)])
    _write_run(bench_dir / "BENCH_2.json", [_rec("thr", 102.0)])
    assert main(["bench", "compare", "--dir", str(bench_dir)]) == 0
    out = capsys.readouterr().out
    assert "unchanged" in out
    assert main(["bench", "gate", "--baseline", base,
                 "--dir", str(bench_dir)]) == 0
    assert "gate: PASS" in capsys.readouterr().out


def test_cli_bench_gate_fails_on_regression(bench_dir, capsys):
    base = _write_run(bench_dir / "BENCH_1.json", [_rec("thr", 100.0)])
    _write_run(bench_dir / "BENCH_2.json", [_rec("thr", 80.0)])
    assert main(["bench", "gate", "--baseline", base,
                 "--dir", str(bench_dir)]) == 1
    assert "gate: FAIL" in capsys.readouterr().out


def test_cli_bench_gate_fails_when_nothing_comparable(bench_dir, capsys):
    base = _write_run(
        bench_dir / "BENCH_1.json", [_rec("thr", 100.0, digest="dA")]
    )
    _write_run(bench_dir / "BENCH_2.json", [_rec("thr", 100.0, digest="dB")])
    assert main(["bench", "gate", "--baseline", base,
                 "--dir", str(bench_dir)]) == 1
    assert "no comparable metrics" in capsys.readouterr().out


def test_cli_bench_gate_missing_baseline(bench_dir, capsys):
    _write_run(bench_dir / "BENCH_1.json", [_rec("thr", 100.0)])
    assert main(["bench", "gate", "--baseline",
                 str(bench_dir / "nope.json"), "--dir", str(bench_dir)]) == 2


def test_cli_bench_report_renders_markdown(bench_dir, capsys):
    _write_run(
        bench_dir / "BENCH_1.json",
        [
            BenchRecord(
                "headline_claims", "throughput_improvement_pct", 70.0,
                unit="%", direction=HIGHER,
            )
        ],
    )
    out_path = str(bench_dir / "REPORT.md")
    assert main(["bench", "report", "--dir", str(bench_dir),
                 "--out", out_path]) == 0
    text = open(out_path).read()
    assert "Paper-fidelity scorecard" in text
    assert "scorecard:" in capsys.readouterr().out


def test_cli_bench_record_runs_a_cell(bench_dir, capsys):
    assert main(["bench", "record", "--design", "MorLog-SLDE",
                 "--workload", "queue", "--transactions", "10",
                 "--threads", "1", "--dir", str(bench_dir)]) == 0
    out = capsys.readouterr().out
    assert "record(s) appended" in out
    _header, records = load_run(latest_run(str(bench_dir)))
    keys = {r.key for r in records}
    assert "cell/MorLog-SLDE/queue/throughput_tx_per_s" in keys
    snap = records[0].attachments["metrics_snapshot"]
    assert "memo" in snap  # codec-memo counters ride along


# ---------------------------------------------------------------------------
# metrics_snapshot memo key + duration_histogram edges
# ---------------------------------------------------------------------------


def test_metrics_snapshot_memo_key_canonical():
    from repro.experiments.parallel import resolve_cell, run_cell
    from repro.trace import metrics_snapshot
    from repro.workloads.base import DatasetSize

    result, system = run_cell(resolve_cell(
        "MorLog-SLDE", "queue", DatasetSize.SMALL,
        n_transactions=10, n_threads=1,
    ))
    memo = system.controller.nvm.memo_stats()
    assert memo, "default config memoizes, stats must be non-empty"
    for counters in memo.values():
        assert list(counters) == sorted(counters)
        assert {"entries", "evictions", "hits", "maxsize", "misses"} <= set(
            counters
        )
    snap = metrics_snapshot(result, memo=memo)
    assert list(snap["memo"]) == sorted(snap["memo"])
    plain = metrics_snapshot(result)
    assert "memo" not in plain  # opt-in only


def test_duration_histogram_bucket_edges():
    from repro.trace.metrics import duration_histogram

    us = 1000  # ns per us
    hist = duration_histogram([
        0.0,            # <1us bucket
        999.0,          # still <1us (floors to 0)
        1 * us,         # lower edge of 1-1us
        2 * us - 1,     # upper edge of 1-1us (1us after floor)
        2 * us,         # lower edge of 2-3us
        4 * us - 1,     # upper edge of 2-3us
        512 * us,       # lower edge of 512-1023us
        1024 * us - 1,  # upper edge of 512-1023us
        1024 * us,      # first value in the overflow bucket
        10_000_000 * us,  # deep overflow
    ])
    counts = hist.counts()
    assert counts["<1us"] == 2
    assert counts["1-1us"] == 2
    assert counts["2-3us"] == 2
    assert counts["512-1023us"] == 2
    assert counts[">=1024us"] == 2
    assert hist.total == 10
    assert sum(counts.values()) == hist.total
    # every power-of-two boundary lands in the bucket it opens
    for i in range(1, 10):
        edge_hist = duration_histogram([(1 << i) * us])
        label = "%d-%dus" % (1 << i, (1 << (i + 1)) - 1)
        assert edge_hist.counts()[label] == 1


def test_duration_histogram_rejects_negative_and_nan():
    from repro.trace.metrics import duration_histogram

    with pytest.raises(ValueError, match="negative"):
        duration_histogram([100.0, -1.0])
    with pytest.raises(ValueError, match="negative"):
        duration_histogram([-0.5])  # would floor to bucket -1 silently
    with pytest.raises(ValueError, match="NaN"):
        duration_histogram([float("nan")])
