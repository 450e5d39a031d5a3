"""Parallel grid engine and result cache tests.

The contract under test: a parallel run produces bit-identical
``RunResult.stats`` to a sequential run of the same grid, every entry
point that runs a cell agrees with every other, and the
content-addressed cache returns equal results on hits while missing
whenever any keyed input (config, params, scale, counts) changes.
"""

import dataclasses
import json
import os

import pytest

from repro.common.config import SystemConfig
from repro.core.system import RunResult
from repro.experiments.cache import CACHE_VERSION, CacheStats, ResultCache
from repro.experiments.parallel import (
    CellSpec,
    default_jobs,
    resolve_cell,
    resolve_jobs,
    run_cells,
)
from repro.experiments.runner import (
    ExperimentScale,
    default_config,
    run_design,
    run_grid,
)
from repro.experiments.serialize import (
    canonical_json,
    config_from_dict,
    config_to_dict,
    params_from_dict,
    params_to_dict,
    run_result_from_dict,
    run_result_to_dict,
    stable_hash,
)
from repro.workloads.base import DatasetSize, WorkloadParams

TINY = ExperimentScale(
    micro_transactions=12, macro_transactions=10, micro_threads=2, macro_threads=2
)
DESIGNS = ("FWB-CRADE", "MorLog-SLDE")
WORKLOADS = ("hash", "queue")


def _grid_cells(designs, workloads, jobs, cache=None):
    """``resolve_cell`` + ``run_cells`` over a grid: (grid, report)."""
    specs = [
        resolve_cell(design, workload, DatasetSize.SMALL, TINY)
        for workload in workloads
        for design in designs
    ]
    flat, report = run_cells(specs, jobs=jobs, cache=cache)
    cells = iter(flat)
    grid = {
        workload: {design: next(cells) for design in designs}
        for workload in workloads
    }
    return grid, report


def _assert_grids_identical(a, b):
    assert set(a) == set(b)
    for workload in a:
        assert set(a[workload]) == set(b[workload])
        for design in a[workload]:
            ra, rb = a[workload][design], b[workload][design]
            assert ra.stats == rb.stats, (workload, design)
            assert ra.elapsed_ns == rb.elapsed_ns
            assert ra.transactions == rb.transactions


class TestSerialization:
    def test_config_round_trip(self):
        config = default_config()
        assert config_from_dict(config_to_dict(config)) == config

    def test_config_round_trip_through_json(self):
        config = default_config()
        data = json.loads(canonical_json(config_to_dict(config)))
        assert config_from_dict(data) == config

    def test_params_round_trip(self):
        params = WorkloadParams(
            dataset=DatasetSize.LARGE, initial_items=7, key_space=77, seed=5,
            zero_fraction=0.1, small_fraction=0.2,
        )
        assert params_from_dict(params_to_dict(params)) == params

    def test_run_result_round_trip(self):
        result = RunResult(
            transactions=5, elapsed_ns=123.5, stats={"loads": 10.0, "stores": 3.0}
        )
        back = run_result_from_dict(run_result_to_dict(result))
        assert back == result

    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
        assert stable_hash({"b": 1, "a": 2}) == stable_hash({"a": 2, "b": 1})


class TestCellKey:
    def _key(self, **overrides):
        base = dict(
            design="FWB-CRADE",
            workload="hash",
            dataset=DatasetSize.SMALL,
            config=default_config(),
            params=WorkloadParams(),
            n_transactions=10,
            n_threads=2,
            repro_scale=1.0,
        )
        base.update(overrides)
        return CellSpec(
            design=base["design"],
            workload=base["workload"],
            dataset=base["dataset"],
            config_dict=config_to_dict(base["config"]),
            params_dict=params_to_dict(base["params"]),
            n_transactions=base["n_transactions"],
            n_threads=base["n_threads"],
            repro_scale=base["repro_scale"],
        ).key()

    def test_key_is_stable(self):
        assert self._key() == self._key()

    def test_config_change_changes_key(self):
        changed = dataclasses.replace(
            default_config(),
            logging=dataclasses.replace(
                default_config().logging, delay_persistence=True
            ),
        )
        assert self._key() != self._key(config=changed)

    def test_params_change_changes_key(self):
        assert self._key() != self._key(params=WorkloadParams(seed=999))

    def test_scale_change_changes_key(self):
        assert self._key() != self._key(repro_scale=2.0)

    def test_counts_change_changes_key(self):
        assert self._key() != self._key(n_transactions=11)
        assert self._key() != self._key(n_threads=4)

    def test_dataset_and_names_change_key(self):
        assert self._key() != self._key(dataset=DatasetSize.LARGE)
        assert self._key() != self._key(design="MorLog-SLDE")
        assert self._key() != self._key(workload="queue")


class TestResultCache:
    def test_round_trip_hit_returns_equal_result(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        result = RunResult(transactions=3, elapsed_ns=9.0, stats={"stores": 4.0})
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        cache.put(key, result)
        assert cache.get(key) == result
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert len(cache) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        key = "cd" + "0" * 62
        cache.put(key, RunResult(1, 1.0, {}))
        path = os.path.join(str(tmp_path), key[:2], key + ".json")
        with open(path, "w") as handle:
            handle.write("{not json")
        assert cache.get(key) is None

    def test_version_is_in_key_fields(self):
        spec = resolve_cell("FWB-CRADE", "hash", DatasetSize.SMALL, TINY)
        assert spec.key_fields()["version"] == CACHE_VERSION

    def test_cache_stats_dict(self):
        stats = CacheStats(hits=2, misses=1, stores=1)
        assert stats.as_dict() == {"hits": 2, "misses": 1, "stores": 1}

    def test_put_is_atomic_no_partial_files(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        key = "ef" + "0" * 62
        cache.put(key, RunResult(1, 1.0, {"x": 1.0}))
        files = []
        for root, _dirs, names in os.walk(str(tmp_path)):
            files.extend(names)
        assert files == [key + ".json"]


class TestParallelDeterminism:
    @pytest.fixture(scope="class")
    def sequential(self):
        """The reference: a plain loop over run_design, no engine."""
        return {
            workload: {
                design: run_design(design, workload, DatasetSize.SMALL, TINY)
                for design in DESIGNS
            }
            for workload in WORKLOADS
        }

    def test_jobs1_matches_sequential(self, sequential):
        grid, _report = _grid_cells(DESIGNS, WORKLOADS, jobs=1)
        _assert_grids_identical(sequential, grid)

    def test_jobs4_matches_jobs1(self, sequential):
        grid, report = _grid_cells(DESIGNS, WORKLOADS, jobs=4)
        _assert_grids_identical(sequential, grid)
        assert report.jobs == 4
        assert report.simulated_cells == len(DESIGNS) * len(WORKLOADS)

    def test_fig12_micro_grid_parallel_identical(self):
        """Acceptance: the Fig-12 grid is bit-identical at jobs=1 and 4."""
        from repro.core.designs import DESIGN_NAMES
        from repro.experiments.figures import MICRO

        grid1, _report = _grid_cells(DESIGN_NAMES, MICRO, jobs=1)
        grid4, _report = _grid_cells(DESIGN_NAMES, MICRO, jobs=4)
        _assert_grids_identical(grid1, grid4)

    def test_run_grid_delegates_to_parallel(self, sequential):
        via_runner = run_grid(
            DESIGNS, WORKLOADS, DatasetSize.SMALL, TINY, jobs=2
        )
        _assert_grids_identical(sequential, via_runner)


class TestCachedGrid:
    def test_warm_rerun_executes_zero_cells(self, tmp_path, ):
        cache = ResultCache(cache_dir=str(tmp_path))
        cold, cold_report = _grid_cells(DESIGNS, WORKLOADS, jobs=2, cache=cache)
        assert cold_report.simulated_cells == len(DESIGNS) * len(WORKLOADS)
        assert cold_report.hits == 0
        warm, warm_report = _grid_cells(DESIGNS, WORKLOADS, jobs=2, cache=cache)
        assert warm_report.simulated_cells == 0
        assert warm_report.hits == len(DESIGNS) * len(WORKLOADS)
        _assert_grids_identical(cold, warm)

    def test_changed_config_misses(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        spec = resolve_cell("FWB-CRADE", "queue", DatasetSize.SMALL, TINY)
        run_cells([spec], jobs=1, cache=cache)
        changed = dataclasses.replace(
            default_config(),
            logging=dataclasses.replace(
                default_config().logging, fwb_interval_cycles=1_000_000
            ),
        )
        spec2 = resolve_cell(
            "FWB-CRADE", "queue", DatasetSize.SMALL, TINY, config=changed
        )
        _results, report = run_cells([spec2], jobs=1, cache=cache)
        assert report.hits == 0 and report.misses == 1

    def test_changed_params_misses(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        spec = resolve_cell("FWB-CRADE", "queue", DatasetSize.SMALL, TINY)
        run_cells([spec], jobs=1, cache=cache)
        spec2 = resolve_cell(
            "FWB-CRADE", "queue", DatasetSize.SMALL, TINY,
            params=WorkloadParams(seed=777),
        )
        _results, report = run_cells([spec2], jobs=1, cache=cache)
        assert report.hits == 0 and report.misses == 1

    def test_changed_repro_scale_misses(self, tmp_path, monkeypatch):
        cache = ResultCache(cache_dir=str(tmp_path))
        spec = resolve_cell(
            "FWB-CRADE", "queue", DatasetSize.SMALL, TINY,
            n_transactions=10, n_threads=1,
        )
        run_cells([spec], jobs=1, cache=cache)
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        # Explicit counts pin the simulation itself, but the scale is a
        # keyed input: a different REPRO_SCALE must not hit.
        spec2 = resolve_cell(
            "FWB-CRADE", "queue", DatasetSize.SMALL, TINY,
            n_transactions=10, n_threads=1,
        )
        assert spec.key() != spec2.key()

    def test_cached_result_equals_simulated(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        spec = resolve_cell("MorLog-SLDE", "hash", DatasetSize.SMALL, TINY)
        first, _ = run_cells([spec], jobs=1, cache=cache)
        again, report = run_cells([spec], jobs=1, cache=cache)
        assert report.hits == 1
        assert first[0] == again[0]


class TestResolveCellValidation:
    """Explicit non-positive counts are caller errors, never coerced.

    Regression for the ``n_transactions or scale.transactions(...)``
    family: an explicit 0 silently became the scale default, so the
    cache key recorded a cell the simulation never ran.
    """

    def test_explicit_zero_transactions_raises(self):
        with pytest.raises(ValueError, match="n_transactions"):
            resolve_cell(
                "FWB-CRADE", "hash", DatasetSize.SMALL, TINY, n_transactions=0
            )

    def test_explicit_zero_threads_raises(self):
        with pytest.raises(ValueError, match="n_threads"):
            resolve_cell(
                "FWB-CRADE", "hash", DatasetSize.SMALL, TINY, n_threads=0
            )

    def test_negative_counts_raise(self):
        with pytest.raises(ValueError):
            resolve_cell(
                "FWB-CRADE", "hash", DatasetSize.SMALL, TINY,
                n_transactions=-5,
            )
        with pytest.raises(ValueError):
            resolve_cell(
                "FWB-CRADE", "hash", DatasetSize.SMALL, TINY, n_threads=-1
            )

    def test_none_still_takes_the_scale_default(self):
        spec = resolve_cell("FWB-CRADE", "hash", DatasetSize.SMALL, TINY)
        assert spec.n_transactions == TINY.transactions(False, DatasetSize.SMALL)
        assert spec.n_threads == TINY.threads(False)


class TestOneExecutionPath:
    """Every entry point that runs a cell runs the same simulation.

    ``run_design``, ``run_cells`` inline and on a pool, ``record_trace``
    and ``profile_design`` all resolve through ``resolve_cell`` and build
    with ``build_cell``; a copy of the resolution or build code that
    drifted would show up here as a different result.
    """

    def test_all_entry_points_agree(self):
        from repro.replay import record_trace
        from repro.trace import profile_design

        cell = dict(n_transactions=12, n_threads=2)
        spec = resolve_cell("MorLog-SLDE", "hash", DatasetSize.SMALL, **cell)
        runs = {
            "run_design": run_design(
                "MorLog-SLDE", "hash", DatasetSize.SMALL, **cell),
            "run_cells jobs=1": run_cells([spec], jobs=1)[0][0],
            "run_cells jobs=2": run_cells([spec], jobs=2)[0][0],
            "record_trace": record_trace(
                "MorLog-SLDE", "hash", DatasetSize.SMALL, **cell)[1],
            "profile_design": profile_design(
                "MorLog-SLDE", "hash", DatasetSize.SMALL, **cell)[0],
        }
        reference = runs["run_design"]
        assert reference.transactions == 12
        for name, result in runs.items():
            assert result.stats == reference.stats, name
            assert result.elapsed_ns == reference.elapsed_ns, name


class TestRunCellsStrict:
    """run_cells raises on a failing cell instead of silently dropping.

    Regression for the old ``[r for r in results if r is not None]``
    tail, which shifted every later result one position left and let
    the grid assembly unflatten the wrong cells into the grid.
    """

    def test_worker_failure_raises_typed_error(self):
        from repro.experiments.megagrid import CellExecutionError

        good = resolve_cell("FWB-CRADE", "hash", DatasetSize.SMALL, TINY)
        bad = dataclasses.replace(good, workload="no-such-workload")
        with pytest.raises(CellExecutionError):
            run_cells([good, bad], jobs=1)


class TestJobsValidation:
    """Explicit non-positive worker and shard counts are caller errors.

    Regression for ``jobs = jobs or default_jobs()``: ``jobs=0`` silently
    ran on every core, and ``jobs=-3`` ran inline while the report said
    ``jobs=-3``.
    """

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == default_jobs()
        assert resolve_jobs(3) == 3
        for bad in (0, -3, True, 2.0, "2"):
            with pytest.raises(ValueError, match="jobs must be a positive int"):
                resolve_jobs(bad)
        with pytest.raises(ValueError, match="shards must be a positive int"):
            resolve_jobs(0, "shards")

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_run_cells_rejects_non_positive_jobs(self, jobs):
        spec = resolve_cell("FWB-CRADE", "hash", DatasetSize.SMALL, TINY)
        with pytest.raises(ValueError, match="jobs must be a positive int"):
            run_cells([spec], jobs=jobs)

    def test_run_megagrid_rejects_non_positive_shards(self, tmp_path):
        from repro.experiments.megagrid import run_megagrid

        spec = resolve_cell("FWB-CRADE", "hash", DatasetSize.SMALL, TINY)
        manifest = tmp_path / "sweep.json"
        with pytest.raises(ValueError, match="shards must be a positive int"):
            run_megagrid([spec], manifest_path=str(manifest), jobs=1, shards=0)
        assert not manifest.exists()

    def test_figures_and_headline_reject_zero_jobs(self):
        from repro.experiments import figures
        from repro.experiments.headline import headline_comparison

        with pytest.raises(ValueError, match="jobs must be a positive int"):
            headline_comparison(
                TINY, cells=(("hash", DatasetSize.SMALL),), jobs=0)
        with pytest.raises(ValueError, match="jobs must be a positive int"):
            figures.fig14_macro_throughput(TINY, designs=DESIGNS, jobs=0)

    def test_cli_grid_reports_bad_counts(self, capsys):
        from repro.cli import main

        grid = ["grid", "--designs", "FWB-CRADE", "--workloads", "hash",
                "--transactions", "4", "--threads", "1", "--no-cache"]
        assert main(grid + ["--jobs", "0"]) == 2
        assert "grid: jobs must be a positive int, got 0" in capsys.readouterr().out
        assert main(grid + ["--jobs", "1", "--shards", "-1"]) == 2
        assert "grid: shards must be a positive int, got -1" in (
            capsys.readouterr().out)
        # Explicit counts: a usage error, not a traceback.
        assert main(grid + ["--transactions", "0"]) == 2
        assert "grid: n_transactions must be positive, got 0" in (
            capsys.readouterr().out)
        assert main(grid + ["--threads", "-1"]) == 2
        assert "grid: n_threads must be positive, got -1" in (
            capsys.readouterr().out)


class TestEngineShape:
    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_report_summary_renders(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        _grid, report = _grid_cells(("FWB-CRADE",), ("queue",), jobs=1,
                                    cache=cache)
        text = report.summary()
        assert "1 simulated" in text and "0 cache hits" in text

    def test_resolve_cell_applies_scale_and_dataset(self):
        spec = resolve_cell("FWB-CRADE", "hash", DatasetSize.LARGE, TINY)
        assert spec.n_transactions == TINY.transactions(False, DatasetSize.LARGE)
        assert spec.n_threads == TINY.threads(False)
        assert spec.params_dict["dataset"] == "LARGE"

    def test_figures_thread_jobs_and_cache(self, tmp_path):
        from repro.experiments import figures

        cache = ResultCache(cache_dir=str(tmp_path))
        _grid, values = figures.fig12_micro_throughput(
            DatasetSize.SMALL, TINY, designs=DESIGNS, jobs=2, cache=cache
        )
        assert cache.stats.stores == len(DESIGNS) * len(figures.MICRO)
        _grid, values2 = figures.fig12_micro_throughput(
            DatasetSize.SMALL, TINY, designs=DESIGNS, jobs=2, cache=cache
        )
        assert values == values2

    def test_headline_parallel_matches_serial(self, tmp_path):
        from repro.experiments.headline import headline_comparison

        cells = (("hash", DatasetSize.SMALL), ("queue", DatasetSize.SMALL))
        serial = headline_comparison(TINY, cells=cells)
        cache = ResultCache(cache_dir=str(tmp_path))
        parallel = headline_comparison(TINY, cells=cells, jobs=2, cache=cache)
        assert parallel == serial


class TestStatsKeyOrder:
    """Reports must not depend on which worker's stats arrive first.

    ``StatGroup.merge`` over disjoint key sets leaves insertion order at
    the mercy of arrival order; ``as_dict`` canonicalizes to sorted keys
    so parallel and sequential runs serialize identically.
    """

    def test_merge_order_does_not_leak_into_as_dict(self):
        from repro.common.stats import StatGroup

        ab = StatGroup("m")
        ab.add("alpha", 1.0)
        ab.add("beta", 2.0)
        ba = StatGroup("m")
        ba.add("beta", 2.0)
        ba.add("alpha", 1.0)

        first = StatGroup("total")
        first.merge(ab)
        first.merge(ba)
        second = StatGroup("total")
        second.merge(ba)
        second.merge(ab)

        assert list(first.as_dict()) == list(second.as_dict())
        assert first.as_dict() == second.as_dict()

    def test_disjoint_merge_is_canonical(self):
        from repro.common.stats import StatGroup

        left = StatGroup("w0")
        left.add("zeta", 3.0)
        right = StatGroup("w1")
        right.add("alpha", 1.0)

        one = StatGroup("total")
        one.merge(left)
        one.merge(right)
        other = StatGroup("total")
        other.merge(right)
        other.merge(left)

        assert list(one.as_dict()) == ["alpha", "zeta"]
        assert list(one.as_dict()) == list(other.as_dict())

    def test_jobs1_and_jobs4_serialize_identically(self):
        """Regression: key order in reports is identical across jobs."""
        grid1, _report = _grid_cells(DESIGNS, WORKLOADS, jobs=1)
        grid4, _report = _grid_cells(DESIGNS, WORKLOADS, jobs=4)
        for workload in grid1:
            for design in grid1[workload]:
                s1 = grid1[workload][design].stats
                s4 = grid4[workload][design].stats
                assert list(s1) == list(s4), (workload, design)
                assert canonical_json(s1) == canonical_json(s4)


class TestBenchEmitAtomic:
    def test_emit_writes_whole_file_atomically(self, tmp_path, monkeypatch, capsys):
        import benchmarks.bench_util as bench_util

        monkeypatch.setattr(bench_util, "RESULTS_DIR", str(tmp_path))
        bench_util.emit("sample", "line one\nline two")
        path = tmp_path / "sample.txt"
        assert path.read_text() == "line one\nline two\n"
        # No temp-file residue next to the result.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sample.txt"]
        assert "line one" in capsys.readouterr().out
