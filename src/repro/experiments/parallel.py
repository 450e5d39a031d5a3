"""Grid cells: one description (:class:`CellSpec`), one runner.

The paper's evaluation is an embarrassingly parallel sweep (8 designs x
12 workloads, Figs 12-16): every cell is an independent, seeded and
therefore deterministic simulation.  Every way of running a cell comes
through this module:

- :func:`resolve_cell` turns run_design-style arguments (counts, config,
  params, scale) into an explicit, serializable :class:`CellSpec`, so
  ``REPRO_SCALE`` and the :class:`ExperimentScale` are applied exactly
  once, before any process boundary;
- :func:`build_cell` builds the fresh system and workload a spec runs
  on, and :func:`run_cell` runs it (or replays the spec's recorded
  trace).  ``run_design``, the pool worker and the ``trace`` and
  ``bench record`` commands call :func:`run_cell`; ``record_trace`` and
  ``profile_design`` call :func:`build_cell` and attach their recorder
  or profiler before running;
- :func:`run_cells` executes a list of specs on the sweep engine
  (:func:`repro.experiments.megagrid.run_megagrid`): cache first,
  duplicates simulated once, inline at ``jobs=1`` and over a process
  pool otherwise, results assembled by position — never by completion
  order — so a parallel run is bit-identical to an inline one.

Per-cell wall time and cache hit/miss counters land in the returned
:class:`GridReport`, making cache speedup and pool scaling observable.
"""

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.designs import make_system
from repro.core.system import RunResult
from repro.experiments.cache import ResultCache, cell_key_fields
from repro.experiments.runner import (
    _scale,
    default_config,
    resolve_counts,
    resolve_params,
)
from repro.experiments.serialize import (
    config_from_dict,
    config_to_dict,
    params_from_dict,
    params_to_dict,
    run_result_from_dict,
    run_result_to_dict,
    stable_hash,
)
from repro.workloads.base import DatasetSize, make_workload


def default_jobs() -> int:
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int], name: str = "jobs") -> int:
    """A worker (or shard) count: explicit, or ``None`` for all CPU cores.

    An explicit count must be a positive int.  Zero or a negative count
    is a caller error, not a request for the default (the ``or``-coercion
    family of bugs; :func:`repro.experiments.runner.resolve_counts`
    rejects bad transaction and thread counts the same way).
    """
    if jobs is None:
        return default_jobs()
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs <= 0:
        raise ValueError(
            "%s must be a positive int, got %r (omit it or pass None for"
            " all CPU cores)" % (name, jobs)
        )
    return jobs


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

    def labels(self) -> Tuple[str, str, str]:
        """``(design, workload, dataset)`` as reports and failures name it."""
        return self.design, self.workload, self.dataset.name

    def execute(self, trace_path: Optional[str]) -> Dict[str, Any]:
        """The engine's worker body: run this cell, return its result dict.

        With a ``trace_path`` the cell runs traced and exports a Chrome
        trace there.  Tracing is inert (test-enforced), so the result —
        and hence the cache entry — is bit-identical either way and the
        cache key needs no trace field.
        """
        if trace_path is None:
            return run_result_to_dict(run_cell(self)[0])
        from repro.trace import TraceConfig, write_chrome_trace

        result, system = run_cell(self, TraceConfig(enabled=True))
        bus = system.tracer
        write_chrome_trace(
            trace_path,
            bus.events,
            design=self.design,
            workload=self.workload,
            dropped=bus.dropped,
        )
        return run_result_to_dict(result)

    decode = staticmethod(run_result_from_dict)


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


def build_cell(spec: CellSpec, trace=None):
    """The fresh ``(System, workload)`` one cell runs on.

    A replay cell has no workload (``None``): its trace drives the
    system.  ``trace`` takes a :class:`repro.trace.TraceConfig`.
    """
    system = make_system(
        spec.design, config_from_dict(spec.config_dict), trace=trace
    )
    if spec.replay_trace_path is not None:
        return system, None
    return system, make_workload(spec.workload, params_from_dict(spec.params_dict))


def run_cell(spec: CellSpec, trace=None) -> Tuple[RunResult, Any]:
    """Run one cell and return ``(RunResult, System)``.

    The system gives callers the post-run machine state the result alone
    cannot: the trace bus, and host-side diagnostics such as the codec
    memo counters (``system.controller.nvm.memo_stats()``).  A replay
    cell replays its recorded trace instead of running the workload.
    """
    system, workload = build_cell(spec, trace)
    if workload is None:
        from repro.replay import load_trace, replay_trace

        return replay_trace(system, load_trace(spec.replay_trace_path)), system
    return system.run(workload, spec.n_transactions, spec.n_threads), system


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
    """Observability for one engine invocation.

    ``failures`` holds the typed
    :class:`~repro.experiments.megagrid.CellFailure` of every cell that
    produced no result (fail-soft runs only); ``resumed`` marks a run
    resumed from its shard manifest.
    """

    cells: List[CellReport] = field(default_factory=list)
    jobs: int = 1
    wall_seconds: float = 0.0
    failures: List[Any] = field(default_factory=list)
    resumed: bool = False

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
        text = (
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
        if self.resumed:
            text += " [resumed]"
        if self.failures:
            text += ", %d FAILED" % len(self.failures)
        return text


def run_cells(
    specs: List[CellSpec],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    trace_dir: Optional[str] = None,
) -> Tuple[List[RunResult], GridReport]:
    """Execute cells (cache-first, then inline or pool) in input order.

    Runs on the sweep engine (:func:`repro.experiments.megagrid.run_megagrid`)
    in fail-fast mode: every returned result aligns with its input spec,
    duplicate specs are simulated exactly once (later indices fan out
    from the first — see ``CellReport.deduped``), completed cells stream
    into the cache as they finish, and a failing cell raises
    :class:`~repro.experiments.megagrid.CellExecutionError` instead of
    silently shifting later results onto the wrong specs.  ``jobs=1``
    runs inline; ``None`` uses every CPU core.

    ``trace_dir`` opts into trace capture: every simulated cell — direct
    or replay — also writes ``<trace_dir>/<key>.trace.json``.  Cached
    cells are not re-simulated — their report records the artifact path
    only if a previous traced run left it on disk.
    """
    from repro.experiments.megagrid import run_megagrid

    outcome = run_megagrid(
        list(specs),
        jobs=jobs,
        cache=cache,
        trace_dir=trace_dir,
        retries=0,
        fail_soft=False,
    )
    return list(outcome.results), outcome.report
