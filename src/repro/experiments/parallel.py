"""Parallel grid engine: fan (design x workload x dataset) cells out over
a process pool, backed by the content-addressed result cache.

The paper's evaluation is an embarrassingly parallel sweep (8 designs x
12 workloads, Figs 12-16): every cell is an independent, seeded and
therefore deterministic simulation.  This module resolves each cell to an
explicit, serializable :class:`CellSpec` in the parent (so ``REPRO_SCALE``
and the :class:`ExperimentScale` are applied exactly once, before the
process boundary), checks the cache, and submits only the misses to a
``concurrent.futures.ProcessPoolExecutor``.  Results are assembled by
cell identity — never by completion order — so a parallel run is
bit-identical to a sequential one; ``jobs=1`` (or a single cell) runs
inline in-process for the same reason, which also keeps the engine usable
where process pools are unavailable.

Per-cell wall time and cache hit/miss counters land in the returned
:class:`GridReport`, making cache speedup and pool scaling observable.
"""

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.system import RunResult
from repro.experiments.cache import ResultCache, cell_key_fields
from repro.experiments.serialize import (
    config_from_dict,
    config_to_dict,
    params_from_dict,
    params_to_dict,
    run_result_to_dict,
    stable_hash,
)
from repro.workloads.base import DatasetSize, WorkloadParams


def default_jobs() -> int:
    return os.cpu_count() or 1


@dataclass(frozen=True)
class CellSpec:
    """One fully-resolved grid cell: everything a worker needs, as data.

    Transaction/thread counts are resolved before construction, so the
    spec (and hence the cache key) is independent of the environment the
    worker process happens to see.
    """

    design: str
    workload: str
    dataset: DatasetSize
    config_dict: Dict[str, Any]
    params_dict: Dict[str, Any]
    n_transactions: int
    n_threads: int
    repro_scale: float
    # Replay cells (see repro.replay): the trace container to drive the
    # cell from instead of re-running the workload, plus its content
    # digest, which joins the cache key so an edited trace misses.
    replay_trace_path: Optional[str] = None
    trace_digest: Optional[str] = None

    def key_fields(self) -> Dict[str, Any]:
        return cell_key_fields(
            self.design,
            self.workload,
            self.dataset.name,
            self.config_dict,
            self.params_dict,
            self.n_transactions,
            self.n_threads,
            self.repro_scale,
            trace_digest=self.trace_digest,
        )

    def key(self) -> str:
        return stable_hash(self.key_fields())


def resolve_cell(
    design: str,
    workload: str,
    dataset: DatasetSize = DatasetSize.SMALL,
    scale=None,
    config=None,
    params=None,
    n_transactions: Optional[int] = None,
    n_threads: Optional[int] = None,
) -> CellSpec:
    """Resolve run_design-style arguments into an explicit CellSpec.

    Explicit ``n_transactions``/``n_threads`` must be positive (see
    :func:`repro.experiments.runner.resolve_counts`).
    """
    from repro.experiments.runner import (
        _scale,
        default_config,
        resolve_counts,
        resolve_params,
    )

    n_transactions, n_threads = resolve_counts(
        workload, dataset, scale, n_transactions, n_threads
    )
    config = config if config is not None else default_config()
    params = resolve_params(params, dataset)
    return CellSpec(
        design=design,
        workload=workload,
        dataset=dataset,
        config_dict=config_to_dict(config),
        params_dict=params_to_dict(params),
        n_transactions=n_transactions,
        n_threads=n_threads,
        repro_scale=_scale(),
    )


def spec_to_dict(spec: CellSpec) -> Dict[str, Any]:
    """Serialize a CellSpec for shard manifests (JSON-safe, lossless)."""
    return {
        "design": spec.design,
        "workload": spec.workload,
        "dataset": spec.dataset.name,
        "config_dict": spec.config_dict,
        "params_dict": spec.params_dict,
        "n_transactions": spec.n_transactions,
        "n_threads": spec.n_threads,
        "repro_scale": spec.repro_scale,
        "replay_trace_path": spec.replay_trace_path,
        "trace_digest": spec.trace_digest,
    }


def spec_from_dict(data: Dict[str, Any]) -> CellSpec:
    """Rebuild a CellSpec from :func:`spec_to_dict` output."""
    return CellSpec(
        design=data["design"],
        workload=data["workload"],
        dataset=DatasetSize[data["dataset"]],
        config_dict=data["config_dict"],
        params_dict=data["params_dict"],
        n_transactions=int(data["n_transactions"]),
        n_threads=int(data["n_threads"]),
        repro_scale=float(data["repro_scale"]),
        replay_trace_path=data.get("replay_trace_path"),
        trace_digest=data.get("trace_digest"),
    )


def resolve_replay_cell(
    design: str,
    trace_path: str,
    config=None,
) -> CellSpec:
    """Resolve a replay cell: ``design`` scoring a recorded trace.

    Workload identity, thread count and transaction count come from the
    trace's own metadata; the trace digest joins the cache key, so
    replaying an edited trace can never replay a stale result.
    """
    from repro.experiments.runner import _scale, default_config
    from repro.replay import load_trace

    trace = load_trace(trace_path)
    meta = trace.meta
    provenance = meta.get("provenance", {})
    config = config if config is not None else default_config()
    return CellSpec(
        design=design,
        workload=provenance.get("workload", "trace"),
        dataset=DatasetSize[provenance.get("dataset", "SMALL")],
        config_dict=config_to_dict(config),
        params_dict={},
        n_transactions=trace.n_transactions,
        n_threads=trace.n_threads,
        repro_scale=_scale(),
        replay_trace_path=os.path.abspath(trace_path),
        trace_digest=trace.digest(),
    )


def _run_replay_payload(payload: Dict[str, Any], started: float) -> Dict[str, Any]:
    """Replay-cell worker body: drive the design from the recorded trace."""
    from repro.core.designs import make_system
    from repro.experiments.serialize import config_from_dict
    from repro.replay import load_trace, replay_trace

    system = make_system(
        payload["design"], config_from_dict(payload["config_dict"])
    )
    result = replay_trace(system, load_trace(payload["replay_trace_path"]))
    return {
        "result": run_result_to_dict(result),
        "seconds": time.perf_counter() - started,
        "trace_path": None,
    }


def _run_cell_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: simulate one cell from its serialized spec.

    Must stay a module-level function so it pickles under every
    multiprocessing start method; returns plain dicts for the same
    reason.  Wall time is measured here so the report reflects the
    simulation itself, not pool queueing.

    When the payload carries a ``trace_path`` the cell runs with tracing
    enabled and exports a Chrome trace there.  Tracing is inert
    (test-enforced), so the result — and hence the cache entry — is
    bit-identical either way and the cache key needs no trace field.
    """
    from repro.experiments.runner import run_design_traced

    from repro.experiments.megagrid import apply_injected_fault

    started = time.perf_counter()
    apply_injected_fault(payload)
    if payload.get("replay_trace_path") is not None:
        return _run_replay_payload(payload, started)
    trace_path = payload.get("trace_path")
    trace = None
    if trace_path is not None:
        from repro.trace import TraceConfig

        trace = TraceConfig(enabled=True)
    result, bus = run_design_traced(
        payload["design"],
        payload["workload"],
        DatasetSize[payload["dataset"]],
        config=config_from_dict(payload["config_dict"]),
        params=params_from_dict(payload["params_dict"]),
        n_transactions=payload["n_transactions"],
        n_threads=payload["n_threads"],
        trace=trace,
    )
    if bus is not None and trace_path is not None:
        from repro.trace import write_chrome_trace

        write_chrome_trace(
            trace_path,
            bus.events,
            design=payload["design"],
            workload=payload["workload"],
            dropped=bus.dropped,
        )
    return {
        "result": run_result_to_dict(result),
        "seconds": time.perf_counter() - started,
        "trace_path": trace_path,
    }


def _payload(spec: CellSpec, trace_path: Optional[str] = None) -> Dict[str, Any]:
    return {
        "design": spec.design,
        "workload": spec.workload,
        "dataset": spec.dataset.name,
        "config_dict": spec.config_dict,
        "params_dict": spec.params_dict,
        "n_transactions": spec.n_transactions,
        "n_threads": spec.n_threads,
        "trace_path": trace_path,
        "replay_trace_path": spec.replay_trace_path,
    }


def _trace_path(trace_dir: Optional[str], spec: CellSpec) -> Optional[str]:
    """Deterministic artifact path for one cell's Chrome trace."""
    if trace_dir is None:
        return None
    return os.path.join(trace_dir, "%s.trace.json" % spec.key())


@dataclass
class CellReport:
    """Where one cell's result came from and what it cost.

    ``trace_path`` is the cell's Chrome-trace artifact when trace capture
    was requested and the file exists (a cached cell keeps its path only
    if the artifact is still on disk), else None.

    ``deduped`` marks an index that repeated an earlier spec in the same
    call: it was served from that cell's single simulation (or cache
    entry), never re-simulated, and reports as a hit.
    """

    design: str
    workload: str
    dataset: str
    cached: bool
    seconds: float
    key: str
    trace_path: Optional[str] = None
    deduped: bool = False


@dataclass
class GridReport:
    """Observability for one engine invocation."""

    cells: List[CellReport] = field(default_factory=list)
    jobs: int = 1
    wall_seconds: float = 0.0

    @property
    def hits(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def misses(self) -> int:
        return sum(1 for c in self.cells if not c.cached)

    @property
    def simulated_cells(self) -> int:
        return self.misses

    @property
    def simulated_seconds(self) -> float:
        return sum(c.seconds for c in self.cells if not c.cached)

    def summary(self) -> str:
        return (
            "grid: %d cells, %d simulated, %d cache hits, jobs=%d, "
            "%.2fs wall (%.2fs simulated)"
            % (
                len(self.cells),
                self.simulated_cells,
                self.hits,
                self.jobs,
                self.wall_seconds,
                self.simulated_seconds,
            )
        )


@dataclass
class GridOutcome:
    """Results keyed like run_grid, plus the execution report."""

    results: Dict[str, Dict[str, RunResult]]
    report: GridReport


def run_cells(
    specs: List[CellSpec],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    trace_dir: Optional[str] = None,
) -> Tuple[List[RunResult], GridReport]:
    """Execute cells (cache-first, then pool) preserving input order.

    Delegates to the mega-grid engine (:mod:`repro.experiments.megagrid`)
    in fail-fast mode: every returned result aligns with its input spec,
    duplicate specs are simulated exactly once (later indices fan out
    from the first — see ``CellReport.deduped``), completed cells stream
    into the cache as they finish, and a failing cell raises instead of
    silently shifting later results onto the wrong specs.

    ``trace_dir`` opts into trace capture: every simulated cell also
    writes ``<trace_dir>/<key>.trace.json``.  Cached cells are not
    re-simulated — their report records the artifact path only if a
    previous traced run left it on disk.
    """
    from repro.experiments.megagrid import GridAssemblyError, run_megagrid

    outcome = run_megagrid(
        list(specs),
        jobs=jobs,
        cache=cache,
        trace_dir=trace_dir,
        retries=0,
        timeout_s=None,
        fail_soft=False,
    )
    missing = [i for i, r in enumerate(outcome.results) if r is None]
    if missing:
        # Unreachable in fail-fast mode (the engine raises first); kept
        # so a dropped cell can never corrupt positional assembly.
        raise GridAssemblyError(
            "run_cells: %d cell(s) absent at indices %s"
            % (len(missing), missing)
        )
    return list(outcome.results), outcome.report


def run_grid_parallel(
    designs: Iterable[str],
    workloads: Iterable[str],
    dataset: DatasetSize = DatasetSize.SMALL,
    scale=None,
    config=None,
    params: Optional[WorkloadParams] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    trace_dir: Optional[str] = None,
) -> GridOutcome:
    """Parallel, cached drop-in for :func:`repro.experiments.runner.run_grid`.

    Returns the same ``{workload: {design: RunResult}}`` mapping (wrapped
    in a :class:`GridOutcome` next to its report) with bit-identical
    stats regardless of ``jobs``.  ``trace_dir`` opts into per-cell trace
    artifacts (see :func:`run_cells`).
    """
    designs = list(designs)
    workloads = list(workloads)
    specs = [
        resolve_cell(design, workload, dataset, scale, config, params)
        for workload in workloads
        for design in designs
    ]
    flat, report = run_cells(specs, jobs=jobs, cache=cache, trace_dir=trace_dir)
    results: Dict[str, Dict[str, RunResult]] = {}
    index = 0
    for workload in workloads:
        row: Dict[str, RunResult] = {}
        for design in designs:
            row[design] = flat[index]
            index += 1
        results[workload] = row
    return GridOutcome(results=results, report=report)
