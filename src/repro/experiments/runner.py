"""Grid runner for design x workload sweeps.

The paper runs 100 K transactions per configuration on a cycle-accurate
simulator; this Python reproduction defaults to a few hundred per cell —
the normalized ratios it reports stabilise well before that (there is a
convergence test in ``tests/test_experiments.py``).  Set the environment
variable ``REPRO_SCALE`` (float, default 1.0) to scale every transaction
count up or down.

``run_grid`` accepts ``jobs``/``cache`` and delegates to the parallel
engine (:mod:`repro.experiments.parallel`) when either is set; results
are bit-identical either way because every cell is seeded.
"""

import os
import warnings
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Tuple

from repro.common.config import LoggingConfig, SystemConfig
from repro.common.errors import ConfigError
from repro.core.designs import make_system
from repro.core.system import RunResult
from repro.workloads.base import DatasetSize, WorkloadParams, make_workload


def _scale() -> float:
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError:
        warnings.warn(
            "ignoring malformed REPRO_SCALE=%r (expected a float)" % raw,
            RuntimeWarning,
            stacklevel=2,
        )
        return 1.0
    if scale <= 0:
        raise ConfigError("REPRO_SCALE must be positive, got %r" % raw)
    return scale


@dataclass(frozen=True)
class ExperimentScale:
    """Transaction counts and thread counts for one sweep."""

    micro_transactions: int = 240
    macro_transactions: int = 120
    large_factor: float = 0.1    # large-dataset cells run fewer txs
    micro_threads: int = 8       # paper: 8
    macro_threads: int = 4       # paper: 4

    def transactions(self, macro: bool, dataset: DatasetSize) -> int:
        base = self.macro_transactions if macro else self.micro_transactions
        if dataset is DatasetSize.LARGE:
            base = max(int(base * self.large_factor), 20)
        return max(int(base * _scale()), 10)

    def threads(self, macro: bool) -> int:
        return self.macro_threads if macro else self.micro_threads


MACRO_NAMES = {"echo", "ycsb", "tpcc"}

DEFAULT_PARAMS = WorkloadParams(initial_items=256, key_space=1024)


def default_config() -> SystemConfig:
    """Experiment base config: Table III with a sweep-friendly log region."""
    return SystemConfig(logging=LoggingConfig(log_region_bytes=8 * 1024 * 1024))


def resolve_params(
    params: Optional[WorkloadParams], dataset: DatasetSize
) -> WorkloadParams:
    """The exact params a cell runs with: defaults + the requested dataset.

    Uses :func:`dataclasses.replace` so every ``WorkloadParams`` field —
    including ones added after this code was written — survives.
    """
    return replace(params or DEFAULT_PARAMS, dataset=dataset)


def resolve_counts(
    workload_name: str,
    dataset: DatasetSize,
    scale: Optional[ExperimentScale],
    n_transactions: Optional[int],
    n_threads: Optional[int],
) -> Tuple[int, int]:
    """``(n_transactions, n_threads)`` of one cell: explicit or the scale's.

    ``None`` asks for the scale default.  An explicit count must be
    positive: zero is a caller error, not a request for the default (the
    ``or``-coercion family of bugs — see ``System.run``'s identical
    ``n_threads=0`` fix).
    """
    if n_transactions is not None and n_transactions <= 0:
        raise ValueError(
            "n_transactions must be positive, got %r (omit it or pass None"
            " for the scale default)" % (n_transactions,)
        )
    if n_threads is not None and n_threads <= 0:
        raise ValueError(
            "n_threads must be positive, got %r (omit it or pass None for"
            " the scale default)" % (n_threads,)
        )
    scale = scale or ExperimentScale()
    macro = workload_name in MACRO_NAMES
    return (
        n_transactions if n_transactions is not None
        else scale.transactions(macro, dataset),
        n_threads if n_threads is not None else scale.threads(macro),
    )


def run_design(
    design: str,
    workload_name: str,
    dataset: DatasetSize = DatasetSize.SMALL,
    scale: Optional[ExperimentScale] = None,
    config: Optional[SystemConfig] = None,
    params: Optional[WorkloadParams] = None,
    n_threads: Optional[int] = None,
    n_transactions: Optional[int] = None,
    trace=None,
) -> RunResult:
    """Run one (design, workload, dataset) cell.

    ``trace`` takes a :class:`repro.trace.TraceConfig`; tracing is inert
    (test-enforced), so traced and traceless runs return identical
    results.  :func:`run_design_system` also returns the system, whose
    ``tracer`` holds the bus.
    """
    return run_design_system(
        design, workload_name, dataset, scale, config, params,
        n_threads, n_transactions, trace,
    )[0]


def run_design_system(
    design: str,
    workload_name: str,
    dataset: DatasetSize = DatasetSize.SMALL,
    scale: Optional[ExperimentScale] = None,
    config: Optional[SystemConfig] = None,
    params: Optional[WorkloadParams] = None,
    n_threads: Optional[int] = None,
    n_transactions: Optional[int] = None,
    trace=None,
):
    """Run one cell and return ``(RunResult, System)``.

    The system gives callers the post-run machine state the result alone
    cannot: the trace bus, and host-side diagnostics such as the codec
    memo counters (``system.controller.nvm.memo_stats()``).
    """
    n_transactions, n_threads = resolve_counts(
        workload_name, dataset, scale, n_transactions, n_threads
    )
    config = config if config is not None else default_config()
    params = resolve_params(params, dataset)
    system = make_system(design, config, trace=trace)
    workload = make_workload(workload_name, params)
    result = system.run(workload, n_transactions, n_threads)
    return result, system


def run_grid(
    designs: Iterable[str],
    workloads: Iterable[str],
    dataset: DatasetSize = DatasetSize.SMALL,
    scale: Optional[ExperimentScale] = None,
    config: Optional[SystemConfig] = None,
    params: Optional[WorkloadParams] = None,
    jobs: Optional[int] = None,
    cache=None,
) -> Dict[str, Dict[str, RunResult]]:
    """Run the full grid; returns {workload: {design: RunResult}}.

    ``jobs`` > 1 fans the cells out over a process pool and ``cache`` (a
    :class:`repro.experiments.cache.ResultCache`) reuses previous results;
    both paths produce bit-identical stats.
    """
    if jobs is not None and jobs != 1 or cache is not None:
        from repro.experiments.parallel import run_grid_parallel

        return run_grid_parallel(
            designs, workloads, dataset, scale, config, params,
            jobs=jobs, cache=cache,
        ).results
    results: Dict[str, Dict[str, RunResult]] = {}
    for workload in workloads:
        row: Dict[str, RunResult] = {}
        for design in designs:
            row[design] = run_design(
                design, workload, dataset, scale, config, params
            )
        results[workload] = row
    return results
