"""Sharded, resumable, fail-soft mega-grid sweep engine (ROADMAP item 4).

``repro.experiments.parallel`` fans a grid out over one batch
``ProcessPoolExecutor.map`` call — which a 10k+-cell design-space sweep
cannot survive: one worker exception kills the whole sweep, a hung cell
blocks it forever, and because results were only cached after *all*
outputs returned, an interrupted sweep lost every completed cell.  This
module replaces the batch call with per-future submission:

- the work list is written to disk first as a shard manifest of
  content-addressed cell keys (:mod:`repro.experiments.manifest`);
- at most ``jobs`` cells are in flight at a time, each with a bounded
  retry budget and an optional per-cell timeout, so one crashing or
  hanging cell *fails soft* — recorded as a typed :class:`CellFailure`
  — while every other cell completes;
- each cell's result streams into the content-addressed cache the
  moment its future resolves, and a progress event is appended to a
  JSONL stream next to the manifest, so a crash loses at most the cells
  in flight;
- resuming (:func:`run_megagrid` with ``resume=True``) reloads the
  manifest and re-runs only the cells the cache does not hold — the
  cache key is the exactly-once token;
- duplicate specs are deduplicated in flight (one simulation, fanned
  back out to every requesting index) and assembly is by cell identity,
  so a parallel, interrupted-and-resumed sweep is bit-identical to a
  sequential one.

``run_cells`` (grid) and ``run_traffic_cells`` (traffic sweeps) both
run on :func:`execute_payloads`, the shared per-future core.
"""

import json
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.core.system import RunResult
from repro.experiments.manifest import (
    ShardManifest,
    build_manifest,
    load_manifest,
    write_manifest,
)
from repro.experiments.parallel import (
    CellReport,
    CellSpec,
    GridReport,
    _payload,
    _run_cell_payload,
    _trace_path,
    resolve_jobs,
)
from repro.experiments.serialize import run_result_from_dict


class CellExecutionError(SimulationError):
    """A cell failed after its retry budget in fail-fast mode."""


class GridAssemblyError(SimulationError):
    """A result was absent where positional assembly required one."""


class InjectedCellFault(RuntimeError):
    """Raised inside a worker by the chaos-injection seam (tests/CI)."""


def apply_injected_fault(payload: Dict[str, Any]) -> None:
    """Honour the ``_inject`` chaos seam inside a worker.

    ``run_megagrid(inject={key: {...}})`` arms one cell's payload with a
    fault spec; tests and the CI smoke job use it to exercise fail-soft,
    retry and timeout paths deterministically:

    - ``{"mode": "raise"}`` — raise :class:`InjectedCellFault`;
    - ``{"mode": "raise-once", "flag_path": p}`` — raise on the first
      attempt only (the flag file records that the fault already fired,
      surviving the process boundary), proving bounded retry;
    - ``{"mode": "sleep", "seconds": s}`` — hang the cell, proving the
      per-cell timeout.
    """
    spec = payload.get("_inject")
    if not spec:
        return
    mode = spec.get("mode")
    if mode == "raise":
        raise InjectedCellFault(spec.get("message", "injected worker fault"))
    if mode == "raise-once":
        flag = spec["flag_path"]
        if not os.path.exists(flag):
            with open(flag, "w") as handle:
                handle.write("tripped\n")
            raise InjectedCellFault("injected transient fault (first attempt)")
        return
    if mode == "sleep":
        time.sleep(float(spec["seconds"]))
        return
    raise ValueError("unknown injected fault mode %r" % (mode,))


@dataclass
class CellFailure:
    """One cell that could not produce a result — typed, never silent."""

    key: str
    design: str
    workload: str
    dataset: str
    kind: str          # "exception" | "timeout"
    message: str
    attempts: int
    seconds: float     # wall time burned on this cell across all attempts

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "design": self.design,
            "workload": self.workload,
            "dataset": self.dataset,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "seconds": self.seconds,
        }

    def format(self) -> str:
        return "%s/%s/%s [%s]: %s after %d attempt(s) (%.2fs): %s" % (
            self.design, self.workload, self.dataset, self.key[:12],
            self.kind, self.attempts, self.seconds, self.message,
        )


@dataclass(frozen=True)
class ExecutionPolicy:
    """How hard the engine tries before a cell is declared failed."""

    jobs: int = 1
    retries: int = 0            # re-submissions after the first attempt
    timeout_s: Optional[float] = None  # per attempt, from submission
    fail_soft: bool = True      # False: first final failure raises


def _describe_spec(spec: CellSpec) -> Tuple[str, str, str]:
    return (spec.design, spec.workload, spec.dataset.name)


def _armed(payload: Dict[str, Any], inject, key: str) -> Dict[str, Any]:
    if inject and key in inject:
        payload = dict(payload, _inject=inject[key])
    return payload


def execute_payloads(
    entries: Sequence[Tuple[str, Dict[str, Any]]],
    worker: Callable[[Dict[str, Any]], Dict[str, Any]],
    policy: ExecutionPolicy,
    describe: Callable[[str], Tuple[str, str, str]],
    on_output: Optional[Callable[[str, Dict[str, Any], int], None]] = None,
    inject: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, "CellFailure"]]:
    """Run unique (key, payload) work items with per-future submission.

    At most ``policy.jobs`` futures are in flight, so a per-cell
    deadline measured from submission approximates time-on-worker.
    ``on_output(key, output, attempts)`` fires in completion order — the
    streaming seam callers use for incremental ``cache.put`` — and any
    exception it raises (notably ``KeyboardInterrupt``) propagates after
    the executor is shut down, with everything already streamed kept.

    Returns ``(outputs, failures)`` keyed by cell key.  In fail-fast
    mode (``policy.fail_soft=False``) the first cell to exhaust its
    retry budget raises :class:`CellExecutionError` instead of filling
    ``failures``.  The inline path (``jobs<=1`` or a single item) cannot
    preempt a running cell, so timeouts only apply under a pool.
    """
    outputs: Dict[str, Dict[str, Any]] = {}
    failures: Dict[str, CellFailure] = {}

    def fail(key: str, kind: str, message: str, attempts: int, started: float):
        design, workload, dataset = describe(key)
        failure = CellFailure(
            key=key, design=design, workload=workload, dataset=dataset,
            kind=kind, message=message, attempts=attempts,
            seconds=time.perf_counter() - started,
        )
        if not policy.fail_soft:
            raise CellExecutionError(failure.format())
        failures[key] = failure

    if not entries:
        return outputs, failures
    if policy.jobs <= 1 or len(entries) == 1:
        for key, payload in entries:
            payload = _armed(payload, inject, key)
            started = time.perf_counter()
            attempts = 0
            while True:
                attempts += 1
                try:
                    output = worker(payload)
                except KeyboardInterrupt:
                    raise
                except Exception as error:
                    if attempts <= policy.retries:
                        continue
                    fail(key, "exception", "%s: %s"
                         % (type(error).__name__, error), attempts, started)
                    break
                outputs[key] = output
                if on_output is not None:
                    on_output(key, output, attempts)
                break
        return outputs, failures

    executor = ProcessPoolExecutor(max_workers=min(policy.jobs, len(entries)))
    queue = deque(
        (key, _armed(payload, inject, key), 1, None) for key, payload in entries
    )
    # future -> [key, payload, attempt, deadline, first_started]
    pending: Dict[Any, List[Any]] = {}
    abandoned = False

    def submit(key, payload, attempt, first_started):
        started = first_started if first_started is not None else time.perf_counter()
        deadline = (
            time.monotonic() + policy.timeout_s
            if policy.timeout_s is not None else None
        )
        try:
            future = executor.submit(worker, payload)
        except Exception as error:  # pool already broken/shut down
            fail(key, "exception", "submit failed: %s" % error, attempt, started)
            return
        pending[future] = [key, payload, attempt, deadline, started]

    try:
        while queue or pending:
            while queue and len(pending) < policy.jobs:
                key, payload, attempt, first_started = queue.popleft()
                submit(key, payload, attempt, first_started)
            if not pending:
                continue
            timeout = None
            if policy.timeout_s is not None:
                now = time.monotonic()
                timeout = max(
                    min(entry[3] for entry in pending.values()) - now, 0.0
                )
            done, _ = wait(
                set(pending), timeout=timeout, return_when=FIRST_COMPLETED
            )
            for future in done:
                key, payload, attempt, _deadline, started = pending.pop(future)
                try:
                    output = future.result()
                except Exception as error:
                    if attempt <= policy.retries:
                        queue.append((key, payload, attempt + 1, started))
                    else:
                        fail(key, "exception", "%s: %s"
                             % (type(error).__name__, error), attempt, started)
                    continue
                outputs[key] = output
                if on_output is not None:
                    on_output(key, output, attempt)
            if policy.timeout_s is not None:
                now = time.monotonic()
                overdue = [
                    future for future, entry in pending.items()
                    if entry[3] is not None and entry[3] <= now
                ]
                for future in overdue:
                    key, payload, attempt, _deadline, started = pending.pop(future)
                    if not future.cancel():
                        # Already running: a CPU-bound worker cannot be
                        # preempted, so orphan it and stop waiting.  Its
                        # eventual result (if any) is discarded.
                        abandoned = True
                    if attempt <= policy.retries:
                        queue.append((key, payload, attempt + 1, started))
                    else:
                        fail(
                            key, "timeout",
                            "exceeded %.3fs per-cell timeout"
                            % policy.timeout_s, attempt, started,
                        )
    finally:
        # Abandoned (hung) workers must not block shutdown; otherwise
        # drain in-flight cells so their results are not wasted ... the
        # completion loop above has already consumed everything done.
        executor.shutdown(wait=not abandoned, cancel_futures=True)
    return outputs, failures


class ProgressStream:
    """Append-only JSONL progress feed next to the manifest.

    One JSON object per line, flushed per event, so an external
    observer (or the PR-5 observatory tooling) can tail a long sweep and
    a crash never loses more than the line being written.
    """

    def __init__(self, path: Optional[str]):
        self.path = path
        self.events_written = 0
        if path:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)

    def emit(self, status: str, **fields) -> None:
        if not self.path:
            return
        event = {"event": status, "unix_time": time.time()}
        event.update(fields)
        with open(self.path, "a") as handle:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
        self.events_written += 1

    def cell(self, status: str, key: str, spec: CellSpec, **fields) -> None:
        self.emit(
            status,
            key=key,
            design=spec.design,
            workload=spec.workload,
            dataset=spec.dataset.name,
            **fields,
        )


@dataclass
class MegaGridReport(GridReport):
    """GridReport plus the typed failure list and resume provenance."""

    failures: List[CellFailure] = field(default_factory=list)
    resumed: bool = False

    def summary(self) -> str:
        text = GridReport.summary(self)
        if self.resumed:
            text += " [resumed]"
        if self.failures:
            text += ", %d FAILED" % len(self.failures)
        return text


@dataclass
class MegaGridOutcome:
    """Everything one engine invocation produced, absence made explicit.

    ``results`` aligns index-for-index with ``specs``; a failed cell
    holds ``None`` there *and* a typed entry in ``failures`` — positions
    never shift, so downstream assembly cannot misattribute results.
    """

    specs: List[CellSpec]
    results: List[Optional[RunResult]]
    failures: List[CellFailure]
    report: MegaGridReport
    manifest: Optional[ShardManifest] = None
    manifest_path: Optional[str] = None

    def by_key(self) -> Dict[str, RunResult]:
        out: Dict[str, RunResult] = {}
        for spec, result in zip(self.specs, self.results):
            if result is not None:
                out[spec.key()] = result
        return out

    def grid(self) -> Dict[str, Dict[str, RunResult]]:
        """Assemble ``{workload: {design: result}}`` by cell identity.

        Raises :class:`GridAssemblyError` if any cell is absent — the
        caller must look at ``failures`` instead of receiving a grid
        with silently missing (or worse, shifted) cells.
        """
        if self.failures or any(r is None for r in self.results):
            raise GridAssemblyError(
                "cannot assemble a full grid: %d cell(s) failed (%s)"
                % (
                    len(self.failures),
                    "; ".join(f.format() for f in self.failures[:3]) or
                    "results missing",
                )
            )
        out: Dict[str, Dict[str, RunResult]] = {}
        for spec, result in zip(self.specs, self.results):
            out.setdefault(spec.workload, {})[spec.design] = result
        return out


def progress_path_for(manifest_path: str) -> str:
    return manifest_path + ".progress.jsonl"


def run_megagrid(
    specs: Optional[Sequence[CellSpec]] = None,
    manifest_path: Optional[str] = None,
    resume: bool = False,
    jobs: Optional[int] = None,
    cache=None,
    retries: int = 1,
    timeout_s: Optional[float] = None,
    fail_soft: bool = True,
    shards: Optional[int] = None,
    trace_dir: Optional[str] = None,
    progress_path: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
    on_cell: Optional[Callable[[str, CellSpec, RunResult], None]] = None,
    interrupt_after: Optional[int] = None,
    inject: Optional[Dict[str, Dict[str, Any]]] = None,
) -> MegaGridOutcome:
    """Run (or resume) a sharded, fail-soft, streaming grid sweep.

    Fresh sweep: pass ``specs`` (and optionally ``manifest_path`` to
    persist the shard manifest before execution).  Resume: pass
    ``resume=True`` with ``manifest_path``; the frozen specs come from
    the manifest (so ``REPRO_SCALE`` etc. apply exactly once, at
    manifest creation) and only cells missing from ``cache`` run.

    Fail-soft semantics: a cell that exhausts ``retries`` (or blows
    ``timeout_s``) becomes a :class:`CellFailure` in the outcome, its
    ``results`` slot stays ``None``, and every other cell completes.
    ``fail_soft=False`` restores fail-fast: the first final failure
    raises :class:`CellExecutionError` — with everything already
    completed safely in the cache, because results stream into it as
    each future resolves, not after the batch.

    ``interrupt_after=N`` raises ``KeyboardInterrupt`` from the
    completion loop after N simulated cells have streamed to the cache:
    a deterministic stand-in for a mid-flight hard kill, used by the
    kill-and-resume tests and the CI smoke job.

    ``on_cell(key, spec, result)`` fires per simulated cell, in
    completion order, after the cache write — the live-observatory seam.
    """
    jobs = resolve_jobs(jobs)
    shards = jobs if shards is None else resolve_jobs(shards, "shards")
    manifest: Optional[ShardManifest] = None
    if resume:
        if manifest_path is None:
            raise ValueError("resume=True requires manifest_path")
        manifest = load_manifest(manifest_path)
        specs = manifest.specs()
    else:
        if specs is None:
            raise ValueError("pass specs (or resume=True with manifest_path)")
        specs = list(specs)
        if manifest_path is not None:
            manifest = build_manifest(
                specs, shards=shards, meta=meta)
            write_manifest(manifest_path, manifest)
    if not specs:
        return MegaGridOutcome(
            specs=[], results=[], failures=[],
            report=MegaGridReport(jobs=jobs, resumed=resume),
            manifest=manifest, manifest_path=manifest_path,
        )
    if progress_path is None and manifest_path is not None:
        progress_path = progress_path_for(manifest_path)
    progress = ProgressStream(progress_path)

    report = MegaGridReport(jobs=jobs, resumed=resume)
    started = time.perf_counter()
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)

    # Dedupe in-flight cells by content key: the first index owns the
    # simulation, every later duplicate fans out from it.
    keys = [spec.key() for spec in specs]
    order: Dict[str, List[int]] = {}
    for i, key in enumerate(keys):
        order.setdefault(key, []).append(i)

    results: List[Optional[RunResult]] = [None] * len(specs)
    reports: List[Optional[CellReport]] = [None] * len(specs)
    to_run: List[str] = []
    cached_keys: List[str] = []
    for key, indices in order.items():
        spec = specs[indices[0]]
        cached = cache.get(key) if cache is not None else None
        if cached is None:
            to_run.append(key)
            continue
        cached_keys.append(key)
        trace_path = _trace_path(trace_dir, spec)
        if trace_path is not None and not os.path.exists(trace_path):
            trace_path = None
        for position, i in enumerate(indices):
            results[i] = cached
            reports[i] = CellReport(
                spec.design, spec.workload, spec.dataset.name, True, 0.0,
                key, trace_path=trace_path, deduped=position > 0,
            )

    progress.emit(
        "start",
        cells=len(specs),
        unique=len(order),
        cached=len(cached_keys),
        missing=len(to_run),
        resumed=resume,
        jobs=jobs,
    )
    for key in cached_keys:
        progress.cell("cached", key, specs[order[key][0]])

    simulated = 0

    def handle_output(key: str, output: Dict[str, Any], attempts: int) -> None:
        nonlocal simulated
        indices = order[key]
        spec = specs[indices[0]]
        result = run_result_from_dict(output["result"])
        if cache is not None:
            # Stream into the cache *now* — an interruption one cell
            # later must not lose this one.
            cache.put(key, result, key_fields=spec.key_fields())
        for position, i in enumerate(indices):
            results[i] = result
            reports[i] = CellReport(
                spec.design, spec.workload, spec.dataset.name,
                position > 0,           # duplicates report as hits
                output["seconds"] if position == 0 else 0.0,
                key,
                trace_path=output.get("trace_path"),
                deduped=position > 0,
            )
        progress.cell(
            "completed", key, spec,
            seconds=output["seconds"], attempts=attempts,
        )
        if on_cell is not None:
            on_cell(key, spec, result)
        simulated += 1
        if interrupt_after is not None and simulated >= interrupt_after:
            raise KeyboardInterrupt(
                "megagrid: interrupted after %d simulated cell(s)" % simulated
            )

    entries = [
        (
            key,
            _payload(
                specs[order[key][0]],
                _trace_path(trace_dir, specs[order[key][0]]),
            ),
        )
        for key in to_run
    ]
    policy = ExecutionPolicy(
        jobs=jobs, retries=retries, timeout_s=timeout_s, fail_soft=fail_soft
    )
    _outputs, failure_map = execute_payloads(
        entries,
        _run_cell_payload,
        policy,
        describe=lambda key: _describe_spec(specs[order[key][0]]),
        on_output=handle_output,
        inject=inject,
    )
    for key, failure in failure_map.items():
        progress.cell(
            "failed", key, specs[order[key][0]],
            kind=failure.kind, message=failure.message,
            attempts=failure.attempts,
        )

    report.cells = [r for r in reports if r is not None]
    report.failures = list(failure_map.values())
    report.wall_seconds = time.perf_counter() - started
    progress.emit(
        "finish",
        completed=sum(1 for r in results if r is not None),
        failed=len(report.failures),
        wall_seconds=report.wall_seconds,
    )
    return MegaGridOutcome(
        specs=list(specs),
        results=results,
        failures=report.failures,
        report=report,
        manifest=manifest,
        manifest_path=manifest_path,
    )


def resume_megagrid(
    manifest_path: str,
    jobs: Optional[int] = None,
    cache=None,
    **kwargs,
) -> MegaGridOutcome:
    """Resume a sweep from its manifest (sugar for ``resume=True``)."""
    return run_megagrid(
        manifest_path=manifest_path, resume=True, jobs=jobs, cache=cache,
        **kwargs,
    )


def megagrid_records(outcome: MegaGridOutcome, sweep_name: str = "megagrid"):
    """Observatory summary of one sweep as PR-5 BenchRecords.

    All ``info`` direction: sweep shape is provenance, not a gated
    metric.  The config digest covers the manifest's cell keys, so two
    different sweeps can never be compared as one.
    """
    from repro.bench.records import INFO, record
    from repro.experiments.serialize import stable_hash

    digest = stable_hash(sorted({spec.key() for spec in outcome.specs}))
    benchmark = "megagrid/%s" % sweep_name
    report = outcome.report
    values = [
        ("cells_total", float(len(outcome.specs))),
        ("cells_simulated", float(report.simulated_cells)),
        ("cells_cached", float(report.hits)),
        ("cells_failed", float(len(outcome.failures))),
        ("wall_seconds", report.wall_seconds),
        ("simulated_seconds", report.simulated_seconds),
    ]
    return [
        record(benchmark, metric, value, direction=INFO, config_digest=digest)
        for metric, value in values
    ]
