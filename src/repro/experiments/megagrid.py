"""Sharded, resumable, fail-soft sweep engine: the one execution core.

Every grid, replay and traffic cell runs through :func:`run_megagrid`:

- the work list can be written to disk first as a shard manifest of
  content-addressed cell keys (:mod:`repro.experiments.manifest`);
- duplicate specs are deduplicated by cell key (one simulation, fanned
  back out to every requesting index) and cached cells are served from
  the content-addressed cache without simulating;
- the misses run with per-future submission: inline at ``jobs=1``,
  otherwise over a process pool with at most ``jobs`` cells in flight,
  each with a bounded retry budget and an optional per-cell timeout, so
  one crashing or hanging cell *fails soft* — recorded as a typed
  :class:`CellFailure` — while every other cell completes;
- each cell's result streams into the cache the moment it finishes, and
  a progress event is appended to a JSONL stream next to the manifest,
  so a crash loses at most the cells in flight;
- resuming (``resume=True``) reloads the manifest and re-runs only the
  cells the cache does not hold — the cache key is the exactly-once
  token;
- results are assembled by position, never by completion order, so a
  parallel, interrupted-and-resumed sweep is bit-identical to an inline
  one.

Each spec kind supplies what the engine needs: ``key()`` and
``key_fields()`` for dedupe and the cache, ``labels()`` for reports,
``execute()`` as the worker body and ``decode()`` for stored results.
:class:`~repro.experiments.parallel.CellSpec` (grid and replay cells,
through :func:`~repro.experiments.parallel.run_cells`) and
:class:`~repro.traffic.sweep.TrafficCellSpec` (through
``run_traffic_cells``) are the two kinds.
"""

import json
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.experiments.manifest import (
    ShardManifest,
    build_manifest,
    load_manifest,
    write_manifest,
)
from repro.experiments.parallel import CellReport, GridReport, resolve_jobs


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
    """How hard the engine tries before a cell is declared failed.

    ``jobs=1`` runs inline, which cannot preempt a running cell, so a
    per-cell timeout there is a caller error rather than a deadline that
    silently never fires.
    """

    jobs: int = 1
    retries: int = 0            # re-submissions after the first attempt
    timeout_s: Optional[float] = None  # per attempt, from submission
    fail_soft: bool = True      # False: first final failure raises

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(
                "retries must be non-negative, got %r" % (self.retries,))
        if self.timeout_s is None:
            return
        if self.timeout_s <= 0:
            raise ValueError(
                "cell timeout must be positive, got %r" % (self.timeout_s,))
        if self.jobs == 1:
            raise ValueError(
                "a cell timeout needs jobs >= 2: the inline path (jobs=1)"
                " cannot preempt a running cell")


def _armed(payload: Dict[str, Any], inject, key: str) -> Dict[str, Any]:
    if inject and key in inject:
        payload = dict(payload, _inject=inject[key])
    return payload


def _run_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: run one cell of any kind from its payload.

    Must stay a module-level function so it pickles under every
    multiprocessing start method; returns plain dicts for the same
    reason.  Wall time is measured here so the report reflects the
    simulation itself, not pool queueing.
    """
    started = time.perf_counter()
    apply_injected_fault(payload)
    result = payload["spec"].execute(payload["trace_path"])
    return {"result": result, "seconds": time.perf_counter() - started}


def _trace_path(trace_dir: Optional[str], spec) -> Optional[str]:
    """Deterministic artifact path for one cell's Chrome trace."""
    if trace_dir is None:
        return None
    return os.path.join(trace_dir, "%s.trace.json" % spec.key())


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
    ``failures``.  Items run inline exactly when ``policy.jobs == 1``;
    any other count uses a pool, even for a single item, so a per-cell
    timeout always has a worker it can abandon.
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
    if policy.jobs == 1:
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

    def cell(self, status: str, key: str, spec, **fields) -> None:
        design, workload, dataset = spec.labels()
        self.emit(
            status,
            key=key,
            design=design,
            workload=workload,
            dataset=dataset,
            **fields,
        )


@dataclass
class MegaGridOutcome:
    """Everything one engine invocation produced, absence made explicit.

    ``results`` aligns index-for-index with ``specs``; a failed cell
    holds ``None`` there *and* a typed entry in ``failures`` — positions
    never shift, so downstream assembly cannot misattribute results.
    """

    specs: List[Any]
    results: List[Optional[Any]]
    failures: List[CellFailure]
    report: GridReport
    manifest: Optional[ShardManifest] = None
    manifest_path: Optional[str] = None


def progress_path_for(manifest_path: str) -> str:
    return manifest_path + ".progress.jsonl"


def run_megagrid(
    specs: Optional[Sequence[Any]] = None,
    manifest_path: Optional[str] = None,
    resume: bool = False,
    jobs: Optional[int] = None,
    cache=None,
    retries: int = 1,
    timeout_s: Optional[float] = None,
    fail_soft: bool = True,
    shards: Optional[int] = None,
    trace_dir: Optional[str] = None,
    interrupt_after: Optional[int] = None,
    inject: Optional[Dict[str, Dict[str, Any]]] = None,
) -> MegaGridOutcome:
    """Run (or resume) a sharded, fail-soft, streaming sweep.

    Fresh sweep: pass ``specs`` (and optionally ``manifest_path`` to
    persist the shard manifest before execution and stream progress
    events next to it).  Resume: pass ``resume=True`` with
    ``manifest_path``; the frozen specs come from the manifest (so
    ``REPRO_SCALE`` etc. apply exactly once, at manifest creation) and
    only cells missing from ``cache`` run.  A manifest holds grid cells
    (:class:`~repro.experiments.parallel.CellSpec`); every spec kind runs
    without one.

    ``jobs=1`` runs inline; any other count uses a process pool.
    ``timeout_s`` needs a pool, so with ``jobs=1`` it raises
    ``ValueError``, as do a non-positive ``timeout_s`` and negative
    ``retries``.

    Fail-soft semantics: a cell that exhausts ``retries`` (or blows
    ``timeout_s``) becomes a :class:`CellFailure` in the outcome, its
    ``results`` slot stays ``None``, and every other cell completes.
    ``fail_soft=False`` restores fail-fast: the first final failure
    raises :class:`CellExecutionError` — with everything already
    completed safely in the cache, because results stream into it as
    each cell finishes, not after the batch.

    ``interrupt_after=N`` raises ``KeyboardInterrupt`` from the
    completion loop after N simulated cells have streamed to the cache:
    a deterministic stand-in for a mid-flight hard kill, used by the
    kill-and-resume tests and the CI smoke job.
    """
    jobs = resolve_jobs(jobs)
    shards = jobs if shards is None else resolve_jobs(shards, "shards")
    policy = ExecutionPolicy(
        jobs=jobs, retries=retries, timeout_s=timeout_s, fail_soft=fail_soft
    )
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
            manifest = build_manifest(specs, shards=shards)
            write_manifest(manifest_path, manifest)
    report = GridReport(jobs=jobs, resumed=resume)
    if not specs:
        return MegaGridOutcome(
            specs=[], results=[], failures=[], report=report,
            manifest=manifest, manifest_path=manifest_path,
        )
    progress = ProgressStream(
        progress_path_for(manifest_path) if manifest_path is not None else None
    )
    started = time.perf_counter()
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)

    # Dedupe by content key: the first index owns the simulation, every
    # later duplicate fans out from it.
    order: Dict[str, List[int]] = {}
    for i, spec in enumerate(specs):
        order.setdefault(spec.key(), []).append(i)

    results: List[Optional[Any]] = [None] * len(specs)
    reports: List[Optional[CellReport]] = [None] * len(specs)

    def fan_out(key, result, seconds, cached, trace_path) -> None:
        indices = order[key]
        design, workload, dataset = specs[indices[0]].labels()
        for position, i in enumerate(indices):
            results[i] = result
            reports[i] = CellReport(
                design, workload, dataset,
                cached or position > 0,     # duplicates report as hits
                seconds if position == 0 else 0.0,
                key,
                trace_path=trace_path,
                deduped=position > 0,
            )

    to_run: List[str] = []
    cached_keys: List[str] = []
    for key, indices in order.items():
        spec = specs[indices[0]]
        cached = (
            cache.get_payload(key, decode=spec.decode)
            if cache is not None else None
        )
        if cached is None:
            to_run.append(key)
            continue
        cached_keys.append(key)
        trace_path = _trace_path(trace_dir, spec)
        if trace_path is not None and not os.path.exists(trace_path):
            trace_path = None
        fan_out(key, cached, 0.0, True, trace_path)

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
        spec = specs[order[key][0]]
        if cache is not None:
            # Stream into the cache *now* — an interruption one cell
            # later must not lose this one.
            cache.put_payload(
                key, output["result"], key_fields=spec.key_fields())
        fan_out(
            key, spec.decode(output["result"]), output["seconds"], False,
            _trace_path(trace_dir, spec),
        )
        progress.cell(
            "completed", key, spec,
            seconds=output["seconds"], attempts=attempts,
        )
        simulated += 1
        if interrupt_after is not None and simulated >= interrupt_after:
            raise KeyboardInterrupt(
                "megagrid: interrupted after %d simulated cell(s)" % simulated
            )

    entries = [
        (key, {
            "spec": specs[order[key][0]],
            "trace_path": _trace_path(trace_dir, specs[order[key][0]]),
        })
        for key in to_run
    ]
    _outputs, failure_map = execute_payloads(
        entries,
        _run_payload,
        policy,
        describe=lambda key: specs[order[key][0]].labels(),
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
    missing = [i for i, r in enumerate(results) if r is None]
    if missing and not fail_soft:
        # Unreachable in fail-fast mode (the engine raises first); kept
        # so a dropped cell can never corrupt positional assembly.
        raise GridAssemblyError(
            "%d cell(s) absent at indices %s" % (len(missing), missing)
        )
    return MegaGridOutcome(
        specs=list(specs),
        results=results,
        failures=report.failures,
        report=report,
        manifest=manifest,
        manifest_path=manifest_path,
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
