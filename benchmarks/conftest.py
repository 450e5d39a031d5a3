"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one paper table/figure and prints it.  The grid
of (design, micro-workload) runs is shared between the figures that the
paper derives from the same experiment (Figs 12/13, Table V).

Grids go through the parallel engine with the content-addressed result
cache, so repeated benchmark runs replay cached cells instead of
re-simulating.  Knobs (all also usable as env vars):

- ``--jobs`` / ``REPRO_JOBS`` — worker processes (default: all cores)
- ``--no-cache`` / ``REPRO_NO_CACHE=1`` — disable the result cache
- ``--cache-dir`` / ``REPRO_CACHE_DIR`` — cache location

Scale with ``REPRO_SCALE`` (e.g. ``REPRO_SCALE=0.25 pytest benchmarks/``)
to trade fidelity for time; the scale is part of the cache key, so every
scale keeps its own cached grid.
"""

import os

import pytest

from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.parallel import resolve_jobs, run_grid_parallel
from repro.experiments.runner import ExperimentScale
from repro.experiments import figures
from repro.workloads.base import DatasetSize

BENCH_SCALE = ExperimentScale()


def pytest_addoption(parser):
    group = parser.getgroup("repro grid engine")
    group.addoption(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for grid cells (default: REPRO_JOBS or all cores)",
    )
    group.addoption(
        "--no-cache",
        action="store_true",
        default=False,
        help="always re-simulate grid cells (skip the result cache)",
    )
    group.addoption(
        "--cache-dir",
        default=None,
        help="result cache directory (default: REPRO_CACHE_DIR or ~/.cache)",
    )


@pytest.fixture(scope="session")
def grid_jobs(request) -> int:
    jobs = request.config.getoption("--jobs")
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        jobs = int(env) if env else None
    return resolve_jobs(jobs)


@pytest.fixture(scope="session")
def grid_cache(request):
    if request.config.getoption("--no-cache") or os.environ.get("REPRO_NO_CACHE"):
        return None
    cache_dir = request.config.getoption("--cache-dir") or default_cache_dir()
    return ResultCache(cache_dir=cache_dir)


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return BENCH_SCALE


@pytest.fixture(scope="session")
def micro_grid_small(scale, grid_jobs, grid_cache):
    """The Figure 12(a)/13/Table V 'small dataset' experiment."""
    outcome = run_grid_parallel(
        figures.DESIGN_NAMES, figures.MICRO, DatasetSize.SMALL, scale,
        jobs=grid_jobs, cache=grid_cache,
    )
    print("\n[micro_grid_small] " + outcome.report.summary())
    return outcome.results


@pytest.fixture(scope="session")
def micro_grid_large(scale, grid_jobs, grid_cache):
    """The Figure 12(b)/Table V 'large dataset' experiment."""
    outcome = run_grid_parallel(
        figures.DESIGN_NAMES, figures.MICRO, DatasetSize.LARGE, scale,
        jobs=grid_jobs, cache=grid_cache,
    )
    print("\n[micro_grid_large] " + outcome.report.summary())
    return outcome.results


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
