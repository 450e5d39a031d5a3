"""Grid runner for design x workload sweeps.

The paper runs 100 K transactions per configuration on a cycle-accurate
simulator; this Python reproduction defaults to a few hundred per cell —
the normalized ratios it reports stabilise well before that (there is a
convergence test in ``tests/test_experiments.py``).  Set the environment
variable ``REPRO_SCALE`` (float, default 1.0) to scale every transaction
count up or down.

This module holds the scale and defaults a cell resolves against
(:func:`resolve_counts`, :func:`resolve_params`, :func:`default_config`)
and the two convenience entry points, :func:`run_design` (one cell) and
:func:`run_grid` (designs x workloads).  Both resolve every cell through
:func:`repro.experiments.parallel.resolve_cell` and run it on that
module's one cell runner, so results are bit-identical to the sweep
engine's for any ``jobs``.
"""

import os
import warnings
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Tuple

from repro.common.config import LoggingConfig, SystemConfig
from repro.common.errors import ConfigError
from repro.core.system import RunResult
from repro.workloads.base import DatasetSize, WorkloadParams


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

    Resolves through :func:`repro.experiments.parallel.resolve_cell` and
    runs on :func:`repro.experiments.parallel.run_cell`, which also
    returns the system.  ``trace`` takes a
    :class:`repro.trace.TraceConfig`; tracing is inert (test-enforced),
    so traced and traceless runs return identical results.
    """
    from repro.experiments.parallel import resolve_cell, run_cell

    spec = resolve_cell(
        design, workload_name, dataset, scale, config, params,
        n_transactions=n_transactions, n_threads=n_threads,
    )
    return run_cell(spec, trace)[0]


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

    Every cell resolves through ``resolve_cell`` and runs on
    ``run_cells``: inline when ``jobs`` is None or 1, over a pool of
    ``jobs`` workers otherwise, with results bit-identical either way.
    ``cache`` (a :class:`repro.experiments.cache.ResultCache`) reuses
    previous results.  A failing cell raises
    :class:`repro.experiments.megagrid.CellExecutionError`.
    """
    from repro.experiments.parallel import resolve_cell, run_cells

    designs = list(designs)
    workloads = list(workloads)
    specs = [
        resolve_cell(design, workload, dataset, scale, config, params)
        for workload in workloads
        for design in designs
    ]
    flat, _report = run_cells(
        specs, jobs=1 if jobs is None else jobs, cache=cache
    )
    cells = iter(flat)
    return {
        workload: {design: next(cells) for design in designs}
        for workload in workloads
    }
