"""Mega-grid engine tests: manifests, resume, fail-soft, figures.

The contracts under test, in paper-reproduction terms:

- a sweep interrupted mid-flight and resumed from its manifest simulates
  every cell exactly once across the two invocations and produces a grid
  bit-identical to an uninterrupted sequential run;
- one crashing (or hanging) worker fails only its own cell — a typed
  :class:`CellFailure` — while every other cell completes, and results
  never shift positions to paper over the hole;
- duplicate specs in one call are simulated once and fanned out
  bit-identically;
- every emitted figure artifact is a structurally valid, self-contained
  Vega-Lite spec with a CSV twin.
"""

import json
import os
import time

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.manifest import (
    ManifestError,
    ManifestVersionError,
    build_manifest,
    load_manifest,
    manifest_status,
    shard_of,
    write_manifest,
)
from repro.experiments.megagrid import (
    CellExecutionError,
    ExecutionPolicy,
    InjectedCellFault,
    apply_injected_fault,
    execute_payloads,
    progress_path_for,
    run_megagrid,
)
from repro.experiments.parallel import (
    GridReport,
    resolve_cell,
    run_cells,
    spec_from_dict,
    spec_to_dict,
)
from repro.experiments.runner import ExperimentScale
from repro.experiments.vega import (
    FigureError,
    discover_figures,
    grid_rows,
    grid_vega_spec,
    validate_vega_lite,
    write_figure,
)
from repro.workloads.base import DatasetSize

TINY = ExperimentScale(
    micro_transactions=12, macro_transactions=10, micro_threads=2,
    macro_threads=2,
)
DESIGNS = ("FWB-CRADE", "MorLog-SLDE")
WORKLOADS = ("hash", "queue")


def _specs():
    return [
        resolve_cell(design, workload, DatasetSize.SMALL, TINY)
        for workload in WORKLOADS
        for design in DESIGNS
    ]


def _assert_results_identical(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra is not None and rb is not None
        assert ra.stats == rb.stats
        assert ra.elapsed_ns == rb.elapsed_ns
        assert ra.transactions == rb.transactions


class TestSpecSerialization:
    def test_round_trip_preserves_key(self):
        for spec in _specs():
            back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
            assert back == spec
            assert back.key() == spec.key()


class TestManifest:
    def test_round_trip(self, tmp_path):
        specs = _specs()
        manifest = build_manifest(specs, shards=3, meta={"note": "t"})
        path = str(tmp_path / "sweep.json")
        write_manifest(path, manifest)
        loaded = load_manifest(path)
        assert loaded.keys() == [s.key() for s in specs]
        assert loaded.specs() == specs
        assert loaded.shards == 3
        assert loaded.meta == {"note": "t"}

    def test_shard_assignment_is_deterministic_and_in_range(self):
        manifest = build_manifest(_specs(), shards=3)
        for cell in manifest.cells:
            assert cell["shard"] == shard_of(cell["key"], 3)
            assert 0 <= cell["shard"] < 3

    def test_duplicates_keep_positions(self):
        spec = _specs()[0]
        manifest = build_manifest([spec, spec])
        assert len(manifest.cells) == 2
        assert manifest.keys() == [spec.key(), spec.key()]

    def test_version_mismatch_raises_typed_error(self, tmp_path):
        path = str(tmp_path / "sweep.json")
        write_manifest(path, build_manifest(_specs()))
        with open(path) as handle:
            data = json.load(handle)
        data["version"] = 999
        with open(path, "w") as handle:
            json.dump(data, handle)
        with pytest.raises(ManifestVersionError):
            load_manifest(path)

    def test_edited_spec_fails_key_integrity(self, tmp_path):
        path = str(tmp_path / "sweep.json")
        write_manifest(path, build_manifest(_specs()))
        with open(path) as handle:
            data = json.load(handle)
        data["cells"][0]["spec"]["n_transactions"] = 99999
        with open(path, "w") as handle:
            json.dump(data, handle)
        with pytest.raises(ManifestError, match="does not match"):
            load_manifest(path)

    def test_garbage_and_missing_files_raise(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(str(tmp_path / "absent.json"))
        path = str(tmp_path / "garbage.json")
        with open(path, "w") as handle:
            handle.write("{nope")
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_status_splits_done_and_missing(self, tmp_path):
        specs = _specs()
        cache = ResultCache(cache_dir=str(tmp_path / "cache"))
        run_megagrid([specs[0]], jobs=1, cache=cache)
        manifest = build_manifest(specs)
        status = manifest_status(manifest, cache)
        assert status["done"] == [specs[0].key()]
        assert set(status["missing"]) == {s.key() for s in specs[1:]}


class TestInjectedFaults:
    def test_raise_mode(self):
        with pytest.raises(InjectedCellFault):
            apply_injected_fault({"_inject": {"mode": "raise"}})

    def test_raise_once_uses_flag_file(self, tmp_path):
        flag = str(tmp_path / "tripped")
        payload = {"_inject": {"mode": "raise-once", "flag_path": flag}}
        with pytest.raises(InjectedCellFault):
            apply_injected_fault(payload)
        assert os.path.exists(flag)
        apply_injected_fault(payload)  # second attempt passes

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            apply_injected_fault({"_inject": {"mode": "nope"}})

    def test_no_inject_is_a_no_op(self):
        apply_injected_fault({})


class TestKillAndResume:
    def test_interrupt_then_resume_is_exactly_once_and_bit_identical(
        self, tmp_path
    ):
        specs = _specs()
        baseline = run_megagrid(specs, jobs=1)

        cache = ResultCache(cache_dir=str(tmp_path / "cache"))
        manifest_path = str(tmp_path / "sweep.json")
        with pytest.raises(KeyboardInterrupt):
            run_megagrid(
                specs, manifest_path=manifest_path, jobs=2, cache=cache,
                interrupt_after=2,
            )
        # The interrupted run streamed exactly its completed cells.
        assert cache.stats.stores == 2

        resumed = run_megagrid(
            manifest_path=manifest_path, resume=True, jobs=2, cache=cache)
        assert resumed.report.resumed
        assert not resumed.failures
        # Exactly-once across both invocations: 2 streamed before the
        # kill, the remaining 2 on resume, none twice.
        assert resumed.report.simulated_cells == len(specs) - 2
        assert resumed.report.hits == 2
        assert cache.stats.stores == len(specs)
        _assert_results_identical(baseline.results, resumed.results)

    def test_progress_stream_records_lifecycle(self, tmp_path):
        specs = _specs()
        cache = ResultCache(cache_dir=str(tmp_path / "cache"))
        manifest_path = str(tmp_path / "sweep.json")
        run_megagrid(specs, manifest_path=manifest_path, jobs=2, cache=cache)
        progress = progress_path_for(manifest_path)
        with open(progress) as handle:
            events = [json.loads(line) for line in handle]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "finish"
        assert kinds.count("completed") == len(specs)
        completed_keys = {e["key"] for e in events if e["event"] == "completed"}
        assert completed_keys == {s.key() for s in specs}

    def test_warm_rerun_simulates_nothing(self, tmp_path):
        specs = _specs()
        cache = ResultCache(cache_dir=str(tmp_path / "cache"))
        cold = run_megagrid(specs, jobs=2, cache=cache)
        warm = run_megagrid(specs, jobs=2, cache=cache)
        assert warm.report.simulated_cells == 0
        assert warm.report.hits == len(specs)
        _assert_results_identical(cold.results, warm.results)


class TestFailSoft:
    def test_injected_fault_fails_only_its_cell(self, tmp_path):
        specs = _specs()
        bad_key = specs[1].key()
        outcome = run_megagrid(
            specs, jobs=2, retries=0, fail_soft=True,
            inject={bad_key: {"mode": "raise", "message": "boom"}},
        )
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.key == bad_key
        assert failure.kind == "exception"
        assert "boom" in failure.message
        assert failure.design == specs[1].design
        # Every other cell completed, at its own position.
        for i, result in enumerate(outcome.results):
            if specs[i].key() == bad_key:
                assert result is None
            else:
                assert result is not None
        assert "1 FAILED" in outcome.report.summary()

    def test_positions_never_shift_around_a_failure(self):
        # [good, bad, good]: the regression for the old silent-drop
        # compaction, which would have left results[1] holding cell 2.
        specs = [
            resolve_cell("FWB-CRADE", "hash", DatasetSize.SMALL, TINY),
            resolve_cell("MorLog-SLDE", "hash", DatasetSize.SMALL, TINY),
            resolve_cell("FWB-CRADE", "queue", DatasetSize.SMALL, TINY),
        ]
        outcome = run_megagrid(
            specs, jobs=1, retries=0, fail_soft=True,
            inject={specs[1].key(): {"mode": "raise"}},
        )
        solo = run_megagrid([specs[0], specs[2]], jobs=1)
        assert outcome.results[1] is None
        assert outcome.results[0].stats == solo.results[0].stats
        assert outcome.results[2].stats == solo.results[1].stats

    def test_fail_fast_raises_typed_error(self):
        specs = _specs()
        with pytest.raises(CellExecutionError):
            run_megagrid(
                specs, jobs=1, retries=0, fail_soft=False,
                inject={specs[0].key(): {"mode": "raise"}},
            )

    def test_transient_fault_is_retried_to_success(self, tmp_path):
        specs = _specs()[:2]
        flag = str(tmp_path / "tripped")
        outcome = run_megagrid(
            specs, jobs=2, retries=1, fail_soft=True,
            inject={
                specs[0].key(): {"mode": "raise-once", "flag_path": flag}
            },
        )
        assert not outcome.failures
        assert all(r is not None for r in outcome.results)
        baseline = run_megagrid(specs, jobs=1)
        _assert_results_identical(baseline.results, outcome.results)

    def test_timeout_fails_only_the_hung_cell(self):
        specs = _specs()
        slow_key = specs[0].key()
        outcome = run_megagrid(
            specs, jobs=2, retries=0, timeout_s=0.5, fail_soft=True,
            inject={slow_key: {"mode": "sleep", "seconds": 30.0}},
        )
        assert [f.key for f in outcome.failures] == [slow_key]
        assert outcome.failures[0].kind == "timeout"
        completed = [
            r for s, r in zip(specs, outcome.results) if s.key() != slow_key
        ]
        assert all(r is not None for r in completed)

    def test_failed_events_reach_the_progress_stream(self, tmp_path):
        specs = _specs()[:2]
        manifest_path = str(tmp_path / "sweep.json")
        outcome = run_megagrid(
            specs, manifest_path=manifest_path, jobs=1, retries=0,
            fail_soft=True, inject={specs[0].key(): {"mode": "raise"}},
        )
        assert len(outcome.failures) == 1
        with open(progress_path_for(manifest_path)) as handle:
            events = [json.loads(line) for line in handle]
        failed = [e for e in events if e["event"] == "failed"]
        assert len(failed) == 1 and failed[0]["key"] == specs[0].key()


class TestTimeoutRule:
    """A per-cell timeout is enforced wherever it is accepted.

    Regression: the engine ran a lone cell inline even at ``jobs >= 2``,
    where nothing can preempt it, so ``repro grid --resume sweep.json
    --jobs 4 --cell-timeout 60`` never timed out once one cell was left.
    Inline now means ``jobs == 1`` exactly, and a timeout there is
    rejected up front instead of silently never firing.
    """

    def test_lone_cell_times_out_on_a_pool(self):
        spec = _specs()[0]
        started = time.perf_counter()
        outcome = run_megagrid(
            [spec], jobs=2, retries=0, timeout_s=0.5, fail_soft=True,
            inject={spec.key(): {"mode": "sleep", "seconds": 3.0}},
        )
        assert [f.kind for f in outcome.failures] == ["timeout"]
        assert outcome.results == [None]
        assert time.perf_counter() - started < 3.0

    @pytest.mark.parametrize("kwargs, message", [
        (dict(jobs=1, timeout_s=5.0), "needs jobs >= 2"),
        (dict(jobs=2, timeout_s=0.0), "timeout must be positive"),
        (dict(jobs=2, timeout_s=-1.0), "timeout must be positive"),
        (dict(jobs=2, retries=-1), "retries must be non-negative"),
    ])
    def test_unenforceable_policy_raises(self, kwargs, message, tmp_path):
        manifest = tmp_path / "sweep.json"
        with pytest.raises(ValueError, match=message):
            run_megagrid(_specs()[:1], manifest_path=str(manifest), **kwargs)
        assert not manifest.exists()

    def test_cli_reports_unenforceable_policy(self, capsys):
        from repro.cli import main

        grid = ["grid", "--designs", "FWB-CRADE", "--workloads", "queue",
                "--transactions", "4", "--threads", "1", "--no-cache"]
        assert main(grid + ["--jobs", "1", "--cell-timeout", "5"]) == 2
        assert "grid: a cell timeout needs jobs >= 2" in (
            capsys.readouterr().out)
        assert main(grid + ["--jobs", "2", "--cell-timeout", "0"]) == 2
        assert "grid: cell timeout must be positive, got 0.0" in (
            capsys.readouterr().out)
        assert main(grid + ["--jobs", "2", "--retries", "-1"]) == 2
        assert "grid: retries must be non-negative, got -1" in (
            capsys.readouterr().out)


class TestDeduplication:
    def test_duplicate_specs_simulate_once_and_fan_out(self):
        spec = resolve_cell("FWB-CRADE", "hash", DatasetSize.SMALL, TINY)
        results, report = run_cells([spec, spec, spec], jobs=2)
        assert report.simulated_cells == 1
        assert report.hits == 2
        assert sum(1 for c in report.cells if c.deduped) == 2
        assert results[0].stats == results[1].stats == results[2].stats
        assert results[0].elapsed_ns == results[1].elapsed_ns

    def test_dedup_matches_solo_run_bit_identically(self):
        spec = resolve_cell("MorLog-SLDE", "queue", DatasetSize.SMALL, TINY)
        solo, _report = run_cells([spec], jobs=1)
        duped, _report2 = run_cells([spec, spec], jobs=2)
        assert duped[0].stats == solo[0].stats
        assert duped[1].stats == solo[0].stats


class TestExecutePayloads:
    def test_empty_entries_is_a_no_op(self):
        outputs, failures = execute_payloads(
            [], worker=None, policy=ExecutionPolicy(jobs=4),
            describe=lambda key: ("d", "w", "s"),
        )
        assert outputs == {} and failures == {}


class TestMegaGridRecords:
    def test_records_cover_sweep_shape(self):
        from repro.experiments.megagrid import megagrid_records

        outcome = run_megagrid(_specs(), jobs=1)
        records = megagrid_records(outcome, sweep_name="unit")
        metrics = {r.metric: r.value for r in records}
        assert metrics["cells_total"] == len(_specs())
        assert metrics["cells_failed"] == 0
        digests = {r.config_digest for r in records}
        assert len(digests) == 1
        assert all(r.benchmark == "megagrid/unit" for r in records)


class TestVega:
    VALUES = {
        "hash": {"FWB-CRADE": 1.0, "MorLog-SLDE": 1.5},
        "queue": {"FWB-CRADE": 2.0, "MorLog-SLDE": 1.8},
    }

    def test_grid_rows_skip_missing_cells(self):
        values = {"hash": {"A": 1.0, "B": None}}
        rows = grid_rows(values)
        assert rows == [{"workload": "hash", "design": "A", "value": 1.0}]

    def test_spec_validates_and_counts_rows(self):
        spec = grid_vega_spec(self.VALUES, "t", "tx/s")
        assert validate_vega_lite(spec) == 4

    def test_validation_rejects_broken_specs(self):
        spec = grid_vega_spec(self.VALUES, "t", "tx/s")
        for mutate in (
            lambda s: s.pop("$schema"),
            lambda s: s.pop("mark"),
            lambda s: s.pop("encoding"),
            lambda s: s["data"]["values"].clear(),
            lambda s: s["encoding"]["y"].update(field="nope"),
        ):
            broken = json.loads(json.dumps(spec))
            mutate(broken)
            with pytest.raises(FigureError):
                validate_vega_lite(broken)

    def test_write_figure_emits_vl_and_csv(self, tmp_path):
        paths = write_figure(
            str(tmp_path), "fig_unit", self.VALUES, "unit figure", "tx/s")
        with open(paths.vl_path) as handle:
            spec = json.load(handle)
        assert validate_vega_lite(spec) == 4
        assert spec["title"] == "unit figure"
        with open(paths.csv_path) as handle:
            lines = handle.read().strip().splitlines()
        assert lines[0] == "workload,design,value"
        assert len(lines) == 5

    def test_discover_figures_lists_valid_and_invalid(self, tmp_path):
        write_figure(str(tmp_path), "good", self.VALUES, "ok", "tx/s")
        with open(str(tmp_path / "bad.vl.json"), "w") as handle:
            handle.write("{}")
        figures = discover_figures(str(tmp_path))
        by_name = {f["name"]: f for f in figures}
        assert by_name["good"]["rows"] == 4
        assert by_name["good"]["csv_path"] is not None
        assert by_name["bad"]["rows"] is None

    def test_report_section_links_figures(self, tmp_path):
        from repro.bench.report import figures_section

        write_figure(str(tmp_path), "fig_x", self.VALUES, "X", "tx/s")
        lines = figures_section(discover_figures(str(tmp_path)))
        text = "\n".join(lines)
        assert "fig_x.vl.json" in text and "fig_x.csv" in text
        assert "4 rows" in text


class TestGridReportSummary:
    def test_summary_keeps_grid_prefix(self):
        report = GridReport(jobs=2)
        assert report.summary().startswith("grid: 0 cells, 0 simulated")

    def test_summary_flags_failures_and_resume(self):
        from repro.experiments.megagrid import CellFailure

        report = GridReport(jobs=2, resumed=True)
        report.failures.append(CellFailure(
            key="k", design="d", workload="w", dataset="SMALL",
            kind="exception", message="m", attempts=1, seconds=0.1,
        ))
        text = report.summary()
        assert "[resumed]" in text and "1 FAILED" in text
