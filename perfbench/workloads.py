"""The benchmark's four workloads.

Each workload function takes ``(seed, seconds, traced, workdir)`` and
returns an :class:`Outcome`.  Work comes in *rounds* of fixed input made
from the seed; a run repeats rounds until about ``seconds`` of host time
are spent, and makes at least :data:`MIN_ROUNDS` of them.  Every host
time is scaled by the host speed read right next to it (see
:data:`REFERENCE_NOMINAL_S`) and kept per repeated item (each
transaction, cell and set-up); the end-to-end host metrics use each
item's median over its repeats.  Simulated metrics come from the first
round, and every later repeat of the same input must reproduce them
exactly.

With ``traced`` set each cell runs twice, once plain and once under
:class:`~perfbench.spans.SpanRecorder` shims, alternating which goes
first.  The per-layer numbers come from the traced copy, the tracing
overhead from the per-transaction pairs, and the traced copy's simulated
result must equal the plain one's.
"""

import gc
import math
import os
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from statistics import median
from typing import Any, Callable, Dict, List, Optional

from repro.core.designs import available_designs, make_system
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import resolve_cell, run_cells
from repro.experiments.runner import DEFAULT_PARAMS, default_config, resolve_params
from repro.experiments.serialize import config_from_dict, params_from_dict
from repro.replay import TraceRecorder, replay_trace
from repro.traffic import TrafficConfig, run_traffic_system
from repro.traffic import engine as traffic_engine
from repro.workloads.base import MICRO_WORKLOADS, DatasetSize, make_workload
from repro.workloads.mixture import MixtureWorkload

from perfbench.checks import recovery_problems, result_problems, traffic_problems
from perfbench.spans import SpanRecorder

clock = time.perf_counter

HEADLINE = ("MorLog-SLDE", "FWB-CRADE")   # the paper's headline pair
# Rounds per run at least, so each item's host time is a median (with
# two rounds, the mean) over repeats.
MIN_ROUNDS = 2
# Host speed.  On a shared host the interpreter runs up to ~1.8x slower,
# in spells from under a second to minutes, which moves raw host times
# by 50% from run to run.  So a fixed pure-Python loop (under 1 ms) is
# timed right before every transaction and after every set-up, and each
# host time is scaled by REFERENCE_NOMINAL_S / that reading: the time on
# a host where the loop takes REFERENCE_NOMINAL_S (about its reading on
# an unloaded 2-vCPU Xeon VM).  The simulator and the loop slow by
# similar shares, so scaled times move ~5% where raw ones move 50%.
REFERENCE_LOOPS, REFERENCE_NOMINAL_S = 5_000, 0.0007
# grid-micro's cells run in pool workers, so a background thread reads
# the loop this often during the pool pass instead.
REFERENCE_EVERY_S, REFERENCE_WINDOW = 0.05, 10

# direct-macro: per cell, 128 ycsb or 40 tpcc transactions, so the
# median host time per transaction falls inside the ycsb mode rather
# than between the two; a round of four cells has 336 transactions.
DIRECT_TX = {"ycsb": 128, "tpcc": 40}
DIRECT_THREADS = 4
# Three rounds pool 1008 transaction samples, 10 beyond the p99.
DIRECT_ROUNDS = 3
# replay-registry: one recorded ycsb trace replayed on all 11 designs;
# 11 x 48 = 528 transactions per round, ~84% of the replay host time
# (the rest is install and prewarm).
REPLAY_TX, REPLAY_THREADS, RECORD_DESIGN = 48, 4, "MorLog-SLDE"
# grid-micro: the paper's six designs x six micro workloads at SMALL,
# plus hash at LARGE on the headline pair.  48 transactions per cell:
# with 32, the simulated metrics of the 38 short cells swing by ~8%
# from seed to seed.
GRID_TX, GRID_THREADS = 48, 4
GRID_LARGE_TX, GRID_LARGE_THREADS = 48, 2
# Spec resolution takes ~5 ms, so each round times it this many times,
# each from a fresh start.
GRID_SETUPS = 12
# The parent's readings stand for the host speed of a whole pool pass,
# which varies more than a transaction's, so a pass is repeated more.
GRID_ROUNDS = 4
# traffic-mix: an offered load at which the admission queues build but
# stay short (at 450k tx/s and above, queueing bursts swing the p90
# commit latency by 30% from seed to seed).  The input is TRAFFIC_CELLS
# scenarios of TRAFFIC_ARRIVALS arrivals, each from its own sub-seed; a
# round runs every scenario.  A scenario spans ~1.7 ms of simulated
# time, so exactly one 1 ms force-write-back scan lands in it whatever
# the seed (at 250 arrivals some seeds end just before the scan and
# some just after, which swings every simulated metric by 10-20%).
# With fewer than ~1000 arrivals in all, the realized blend swings the
# host p90 by 20% from seed to seed; so a round holds 1000, takes most
# of a run, and TRAFFIC_ROUNDS is 1 (the host times are scaled per
# transaction, so they need no repeats).  1024 tenants with a mild Zipf
# skew keep the realized blend near 70/20/10 for every seed (16 tenants
# let the hottest tenant's component swing the mix, and with it every
# metric, from seed to seed).
TRAFFIC_DESIGN = "MorLog-SLDE"
TRAFFIC_LOAD, TRAFFIC_ARRIVALS, TRAFFIC_CELLS = 300_000.0, 500, 2
TRAFFIC_ROUNDS = 1
# Extra set-ups per scenario, each stopped at its first transaction.
TRAFFIC_TENANTS, TRAFFIC_ZIPF, TRAFFIC_SETUPS = 1024, 0.5, 3

WHY = {
    "direct-macro": (
        "Transactions dominate it and NVM, encoding, logging and cache all "
        "run per store, so a change to per-store simulator cost shows here "
        "first."),
    "grid-micro": (
        "The only workload through the experiments layer (spec resolution, "
        "pool dispatch, pickling, cache writes and hits), with short cells "
        "where per-cell fixed costs and LARGE set-up weigh most."),
    "replay-registry": (
        "The only workload through the ablation and extension loggers; it "
        "bypasses the workloads layer and moves codec work into the "
        "vectorized prewarm."),
    "traffic-mix": (
        "The only path through open-loop dispatch, the admission queues and "
        "MixtureWorkload, and the source of the simulated commit-latency SLO."),
}


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation)."""
    ordered = sorted(values)
    rank = max(math.ceil(fraction * len(ordered)), 1)
    return ordered[rank - 1]


def reference_s() -> float:
    """Host seconds of one pass of the fixed reference loop."""
    table: Dict[int, int] = {}
    start = clock()
    for i in range(REFERENCE_LOOPS):
        table[i & 1023] = table.get((i * 7) & 1023, 0) + i
    return clock() - start


def rounds(seconds: float, min_rounds: int):
    """Yield round indices until about ``seconds`` of host time are spent.

    Another round starts only while finishing it would land nearer the
    target than stopping now.
    """
    start = clock()
    index = 0
    while True:
        began = clock()
        yield index
        index += 1
        now = clock()
        if index >= min_rounds and now - start + (now - began) / 2 >= seconds:
            return


class SetupDone(Exception):
    """Raised by a stopping :class:`TxProbe` as the first transaction starts."""


class ReferenceSampler:
    """Reads the reference loop every REFERENCE_EVERY_S in a background
    thread while the ``with`` block runs (the main thread waits on a
    pool, so the readings cost the pool's workers under 2% of a CPU)."""

    def __enter__(self) -> "ReferenceSampler":
        self.readings: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()
        return self

    def _read(self) -> None:
        while not self._stop.wait(REFERENCE_EVERY_S):
            self.readings.append(reference_s())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.readings:
            self.readings.append(reference_s())

    @property
    def scale(self) -> float:
        """A reading that waited for a CPU the workers hold reads slow,
        so each window of REFERENCE_WINDOW readings counts its fastest."""
        windows = [min(self.readings[i:i + REFERENCE_WINDOW])
                   for i in range(0, len(self.readings), REFERENCE_WINDOW)]
        return REFERENCE_NOMINAL_S / median(windows)


class TxProbe:
    """Host time and simulated latency of each ``run_transaction`` call.

    Set as an instance attribute on a built System, outside any span
    shim, so it times exactly what the simulator does per transaction.
    Before each transaction it reads the reference loop (untimed), for
    the host speed at that moment.  With ``stop`` set it raises
    :class:`SetupDone` instead of running the first transaction, so a
    caller can time a set-up alone.
    """

    def __init__(self, system, stop: bool = False) -> None:
        self.host_s: List[float] = []
        self.reference_s: List[float] = []
        self.sim_ns: List[float] = []
        self.first: Optional[float] = None
        self.setup_reading = 0.0   # host speed as the set-up ended
        self.reading_s = 0.0       # host seconds spent reading host speed
        inner = system.run_transaction

        def run_transaction(core, body):
            began = clock()
            if self.first is None:
                self.first = began
                self.setup_reading = median(reference_s() for _ in range(3))
            self.reference_s.append(reference_s())
            self.reading_s += clock() - began
            if stop:
                raise SetupDone
            begin_ns = system.core_time_ns[core]
            start = clock()
            inner(core, body)
            self.host_s.append(clock() - start)
            self.sim_ns.append(system.core_time_ns[core] - begin_ns)

        system.run_transaction = run_transaction

    @property
    def scaled_s(self) -> List[float]:
        """Each transaction's host seconds, scaled by the host speed."""
        return [seconds * REFERENCE_NOMINAL_S / reading
                for seconds, reading in zip(self.host_s, self.reference_s)]


@dataclass
class CellRun:
    """One simulated cell executed in this process."""

    result: Any
    system: Any
    probe: TxProbe
    start: float
    end: float
    marks: Dict[str, float] = field(default_factory=dict)
    trace: Any = None
    latencies: List[float] = field(default_factory=list)  # arrival -> commit
    queue_ns: List[float] = field(default_factory=list)   # arrival -> start

    @property
    def setup_s(self) -> float:
        """Host seconds from the build to the first transaction."""
        return self.probe.first - self.start

    @property
    def scaled_setup_s(self) -> float:
        """:attr:`setup_s` scaled by the host speed read as it ended."""
        return self.setup_s * REFERENCE_NOMINAL_S / self.probe.setup_reading

    @property
    def wall_s(self) -> float:
        """Host seconds of the whole cell, reference readings excluded."""
        return self.end - self.start - self.probe.reading_s

    @property
    def scaled_wall_s(self) -> float:
        """:attr:`wall_s` scaled part by part: the set-up and each
        transaction by their own readings, the rest (the run loop between
        transactions, drain) by the cell's median reading."""
        probe = self.probe
        rest = self.wall_s - self.setup_s - sum(probe.host_s)
        return (self.scaled_setup_s + sum(probe.scaled_s)
                + rest * REFERENCE_NOMINAL_S / median(probe.reference_s))


def quiesce() -> None:
    """Put the process back in the state a fresh one starts a cell in.

    The simulator keeps module-level memo caches (``functools`` caches in
    its codecs and NVM array) that live across cells; left warm, each
    repeat of a round runs faster than the one before, and the median
    over rounds lands wherever the warm-up happens to be.  They are
    cleared before every cell.  And a System is a web of reference
    cycles, so a finished cell's machine lingers until a full collection;
    without one here, when that collection lands (and how much it has to
    walk) depends on the cells before.
    """
    for name, module in list(sys.modules.items()):
        if name.startswith("repro."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    gc.collect()


def fresh(make: Callable, spans) -> "CellRun":
    """Run ``make(spans)`` as the first cell of a fresh process would run."""
    quiesce()
    return make(spans)


def transactions(result) -> int:
    """Simulated transactions a RunResult or TrafficResult completed."""
    return getattr(result, "transactions", None) or result.completed


def medians(samples: Dict[Any, List[float]]) -> List[float]:
    """Each repeated item's median scaled host time."""
    return [median(times) for times in samples.values()]


@dataclass
class Outcome:
    """Everything one workload run measured and checked.

    ``setup``, ``tx`` and ``cells`` map each repeated item (a cell's
    set-up, one transaction, a whole cell) to its scaled host seconds in
    every round.  ``sim_tx_per_host_s`` divides ``phase_tx`` by the time
    in ``phase``: the transactions themselves, or for ``grid-micro`` the
    pool pass.
    """

    traced: bool
    n_rounds: int = 0
    setup: Dict[Any, List[float]] = field(default_factory=dict)
    tx: Dict[Any, List[float]] = field(default_factory=dict)
    cells: Dict[Any, List[float]] = field(default_factory=dict)
    phase: Optional[Dict[Any, List[float]]] = None
    phase_tx: int = 0
    cells_per_item: int = 1
    reference_s: List[float] = field(default_factory=list)  # every reading
    sim: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    attachments: Dict[str, Any] = field(default_factory=dict)
    tracer: SpanRecorder = field(default_factory=SpanRecorder)
    overhead_pairs: List[float] = field(default_factory=list)
    reference: Dict[str, Any] = field(default_factory=dict)
    traced_stats: Dict[str, float] = field(default_factory=dict)

    def rounds(self, seconds: float, min_rounds: int = MIN_ROUNDS):
        """:func:`rounds`, counting them."""
        for index in rounds(seconds, min_rounds):
            self.n_rounds += 1
            yield index

    def sample(self, samples: Dict[Any, List[float]], key, seconds: float) -> None:
        samples.setdefault(key, []).append(seconds)

    def host_metrics(self) -> Dict[str, float]:
        """End-to-end host metrics from each item's median repeat."""
        tx = medians(self.tx)
        phase = medians(self.tx if self.phase is None else self.phase)
        return {
            "setup_s": sum(medians(self.setup)),
            "sim_tx_per_host_s": (self.phase_tx or len(tx)) / sum(phase),
            "tx_host_ms_p50": percentile(tx, 0.50) * 1e3,
            "tx_host_ms_p90": percentile(tx, 0.90) * 1e3,
            "cells_per_s": (self.cells_per_item * len(self.cells)
                            / sum(medians(self.cells))),
        }

    def check(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def execute(
        self,
        label: str,
        make: Callable[[Optional[SpanRecorder]], CellRun],
        extra: Callable[[CellRun], List[str]] = lambda run: [],
    ) -> CellRun:
        """Run one cell (twice when traced), check it, return the plain run."""
        problems: List[str] = []
        if not self.traced:
            run = fresh(make, None)
        else:
            # Alternate which copy runs first, so warm-up favours neither.
            order = (None, self.tracer) if self.attempted % 2 else (self.tracer, None)
            runs = {spans is None: fresh(make, spans) for spans in order}
            run, traced = runs[True], runs[False]
            problems += result_problems(
                label + " traced vs plain", run.result, traced.result)
            self.overhead_pairs.extend(
                t / p for t, p in zip(traced.probe.scaled_s, run.probe.scaled_s))
            self._count(traced)
        reference = self.reference.setdefault(label, run.result)
        problems += result_problems(label + " repeat", reference, run.result)
        problems += extra(run)
        problems += recovery_problems(run.system)
        self.check(problems)
        return run

    def _count(self, traced: CellRun) -> None:
        """Accumulate a traced cell's simulated counters and memo stats."""
        totals = self.traced_stats
        stats = traced.result.stats
        for key in ("cells_programmed", "stores", "silent_stores"):
            totals[key] = totals.get(key, 0.0) + stats.get(key, 0.0)
        totals["tx"] = totals.get("tx", 0) + transactions(traced.result)
        for counters in traced.system.controller.nvm.memo_stats().values():
            totals["memo_hits"] = totals.get("memo_hits", 0) + counters["hits"]
            totals["memo_lookups"] = (
                totals.get("memo_lookups", 0) + counters["hits"] + counters["misses"])

    def measure(self, label: str, run: CellRun) -> None:
        """Add a plain cell's scaled host times: its transactions, its
        wall and its set-up."""
        for index, seconds in enumerate(run.probe.scaled_s):
            self.sample(self.tx, (label, index), seconds)
        self.sample(self.cells, label, run.scaled_wall_s)
        self.sample(self.setup, label, run.scaled_setup_s)
        self.reference_s.extend(run.probe.reference_s)

    def span_layers(self) -> Dict[str, float]:
        """Per-layer metrics read from the spans and traced counters."""
        spans, totals = self.tracer, self.traced_stats

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "nvm.write_self_s": spans.span_self("nvm.write"),
            "nvm.write_calls": spans.span_calls("nvm.write"),
            "nvm.read_self_s": spans.span_self("nvm.read"),
            "nvm.cells_programmed_per_tx": ratio(
                totals.get("cells_programmed", 0.0), totals.get("tx", 0)),
            # Stores that rewrite the value already held, which the
            # write path elides.
            "nvm.silent_store_ratio": ratio(
                totals.get("silent_stores", 0.0), totals.get("stores", 0.0)),
            "encoding.self_s": spans.span_self("encoding"),
            "encoding.calls": spans.span_calls("encoding"),
            "encoding.memo_hit_ratio": ratio(
                totals.get("memo_hits", 0), totals.get("memo_lookups", 0)),
            "logging_hw.self_s": spans.span_self("logging_hw."),
            "logging_hw.calls": spans.span_calls("logging_hw."),
            "logging_hw.commit_self_s": spans.span_self("logging_hw.commit"),
            "logging_hw.drain_s": spans.span_total("logging_hw.drain"),
            "cache.access_self_s": spans.span_self("cache.access"),
            "cache.access_calls": spans.span_calls("cache.access"),
            "cache.fwb_scan_self_s": spans.span_self("cache.fwb_scan"),
            "cache.fwb_scan_calls": spans.span_calls("cache.fwb_scan"),
            "core.tx_self_s": spans.span_self("core.tx"),
            "workloads.setup_s": spans.span_total("workloads.setup"),
            "traffic.engine_self_s": spans.span_self("traffic.engine"),
        }


def sim_metrics(results: List[Any], latencies_ns: List[float]) -> Dict[str, float]:
    """Simulated end-to-end metrics over closed-loop RunResults."""
    tx = sum(r.transactions for r in results)
    ns = sum(r.elapsed_ns for r in results)
    return {
        "sim_ns_per_tx": ns / tx,
        "nvm_bits_per_tx": sum(r.stats.get("bits_written", 0.0) for r in results) / tx,
        "nvm_energy_pj_per_tx": sum(r.stats.get("energy_pj", 0.0) for r in results) / tx,
        "goodput_tx_per_s": tx / (ns * 1e-9),
        **latency_metrics(latencies_ns),
    }


def latency_metrics(latencies_ns: List[float]) -> Dict[str, float]:
    """Simulated commit-latency percentiles (nearest rank)."""
    return {
        "commit_p90_ns": percentile(latencies_ns, 0.90),
        "core.commit_p99_ns": percentile(latencies_ns, 0.99),
    }


def grid_sim_metrics(specs, results) -> Dict[str, float]:
    """Simulated metrics of a grid: geometric means of per-cell values.

    Cells differ by orders of magnitude (a LARGE cell writes ~20x the
    bits of a SMALL one), so plain totals would follow the LARGE cells
    alone.  Commit latency per cell is its mean (makespan x threads /
    transactions); the percentiles are taken over cells.
    """
    def gmean(values):
        return math.exp(sum(math.log(v) for v in values) / len(values))

    return {
        "sim_ns_per_tx": gmean([r.elapsed_ns / r.transactions for r in results]),
        "nvm_bits_per_tx": gmean(
            [r.stats["bits_written"] / r.transactions for r in results]),
        "nvm_energy_pj_per_tx": gmean(
            [r.stats["energy_pj"] / r.transactions for r in results]),
        "goodput_tx_per_s": gmean([r.throughput_tx_per_s for r in results]),
        **latency_metrics([
            r.elapsed_ns * spec.n_threads / r.transactions
            for r, spec in zip(results, specs)]),
    }


def attachment(result) -> Dict[str, float]:
    """Per-cell simulated values kept with the run's provenance."""
    return {
        "transactions": transactions(result),
        "elapsed_ns": getattr(result, "elapsed_ns", None) or result.makespan_ns,
        "bits_written": result.stats.get("bits_written", 0.0),
        "energy_pj": result.stats.get("energy_pj", 0.0),
        "cells_programmed": result.stats.get("cells_programmed", 0.0),
    }


def seeded_params(seed: int, dataset: DatasetSize = DatasetSize.SMALL):
    return resolve_params(replace(DEFAULT_PARAMS, seed=seed), dataset)


def design_config(design: str):
    """Experiment config; CoW-Page runs with the 256-B pages sweeps pin."""
    config = default_config()
    if design == "CoW-Page":
        config = config.with_changes(
            logging=replace(config.logging, page_bytes=256))
    return config


def direct_cell(design, workload_name, params, n_tx, n_threads, config,
                spans=None, recorder=None) -> CellRun:
    """Build a system and run one closed-loop cell through System.run."""
    start = clock()
    system = make_system(design, config)
    workload = make_workload(workload_name, params)
    if spans is not None:
        spans.install(system)
        spans.install_workload(workload)
    probe = TxProbe(system)
    system.recorder = recorder
    try:
        result = system.run(workload, n_tx, n_threads)
    finally:
        system.recorder = None
    run = CellRun(result, system, probe, start, clock())
    if recorder is not None:
        run.trace = recorder.finish({
            "design": design,
            "n_threads": n_threads,
            "n_transactions": n_tx,
            "provenance": workload.trace_provenance(),
        })
    return run


# ----------------------------------------------------------------------
# direct-macro
# ----------------------------------------------------------------------

def direct_macro(seed: int, seconds: float, traced: bool, workdir: str) -> Outcome:
    out = Outcome(traced)
    params = seeded_params(seed)
    config = default_config()
    cells = [(design, name) for name in ("ycsb", "tpcc") for design in HEADLINE]
    first_results, first_latencies = [], []
    for round_index in out.rounds(seconds, DIRECT_ROUNDS):
        for design, name in cells:
            label = "%s/%s" % (design, name)
            run = out.execute(
                label,
                lambda spans: direct_cell(
                    design, name, params, DIRECT_TX[name], DIRECT_THREADS,
                    config, spans),
            )
            out.measure(label, run)
            if round_index == 0:
                first_results.append(run.result)
                first_latencies.extend(run.probe.sim_ns)
                out.attachments[label] = attachment(run.result)
    out.sim = sim_metrics(first_results, first_latencies)
    return out


# ----------------------------------------------------------------------
# replay-registry
# ----------------------------------------------------------------------

def replay_cell(design: str, trace, spans=None) -> CellRun:
    """Replay ``trace`` on a fresh ``design`` system, timing its phases."""
    start = clock()
    system = make_system(design, design_config(design))
    if spans is not None:
        spans.install(system)
    probe = TxProbe(system)
    run = CellRun(None, system, probe, start, 0.0)
    inner = system.reset_measurement

    def reset_measurement():
        # replay_trace resets measurement once the image is installed.
        inner()
        run.marks.setdefault("installed", clock())

    system.reset_measurement = reset_measurement
    run.result = replay_trace(system, trace)
    run.end = clock()
    return run


def replay_registry(seed: int, seconds: float, traced: bool, workdir: str) -> Outcome:
    out = Outcome(traced)
    params = seeded_params(seed)
    designs = available_designs(True, True)
    phases: Dict[str, List[float]] = {
        "replay.record_s": [], "replay.install_s": [], "replay.prewarm_s": [],
        "replay.tx_s": [], "replay.tx_speedup": [],
    }
    first_results, first_latencies = [], []
    for round_index in out.rounds(seconds):
        record = out.execute(
            "record",
            lambda spans: direct_cell(
                RECORD_DESIGN, "ycsb", params, REPLAY_TX, REPLAY_THREADS,
                default_config(), spans, recorder=TraceRecorder()),
        )
        out.sample(out.setup, "record", record.scaled_wall_s)
        install = prewarm = tx_s = 0.0
        for design in designs:
            run = out.execute(
                design,
                lambda spans: replay_cell(design, record.trace, spans),
                extra=lambda run: (
                    result_problems("replay vs record", record.result, run.result)
                    if design == RECORD_DESIGN else []),
            )
            out.measure(design, run)
            installed = run.marks["installed"]
            install += installed - run.start
            prewarm += run.probe.first - installed
            tx_s += sum(run.probe.host_s)
            if design == RECORD_DESIGN:
                phases["replay.tx_speedup"].append(
                    sum(record.probe.scaled_s) / sum(run.probe.scaled_s))
            if round_index == 0:
                first_results.append(run.result)
                first_latencies.extend(run.probe.sim_ns)
                out.attachments[design] = attachment(run.result)
        phases["replay.record_s"].append(record.wall_s)
        phases["replay.install_s"].append(install)
        phases["replay.prewarm_s"].append(prewarm)
        phases["replay.tx_s"].append(tx_s)
    out.sim = sim_metrics(first_results, first_latencies)
    out.layers = {name: median(values) for name, values in phases.items()}
    return out


# ----------------------------------------------------------------------
# grid-micro
# ----------------------------------------------------------------------

def grid_specs(seed: int):
    small = seeded_params(seed)
    large = seeded_params(seed, DatasetSize.LARGE)
    specs = [
        resolve_cell(design, name, DatasetSize.SMALL, params=small,
                     n_transactions=GRID_TX, n_threads=GRID_THREADS)
        for name in MICRO_WORKLOADS for design in available_designs()
    ]
    specs += [
        resolve_cell(design, "hash", DatasetSize.LARGE, params=large,
                     n_transactions=GRID_LARGE_TX, n_threads=GRID_LARGE_THREADS)
        for design in HEADLINE
    ]
    return specs


def spec_label(spec) -> str:
    return "%s/%s/%s" % (spec.design, spec.workload, spec.dataset.name)


def grid_micro(seed: int, seconds: float, traced: bool, workdir: str) -> Outcome:
    out = Outcome(traced)
    jobs = max(1, min(2, os.cpu_count() or 1))
    experiments: Dict[str, List[float]] = {
        "experiments.parallel_efficiency": [], "experiments.warm_sweep_s": [],
        "experiments.cache_hit_ratio": [],
    }
    cell_seconds: List[float] = []
    out.phase = {}
    for round_index in out.rounds(seconds, GRID_ROUNDS):
        cache_dir = tempfile.mkdtemp(prefix="grid-cache-", dir=workdir)
        try:
            for _ in range(GRID_SETUPS):
                quiesce()
                reading = median(reference_s() for _ in range(3))
                began = clock()
                specs = grid_specs(seed)
                out.sample(out.setup, "specs",
                           (clock() - began) * REFERENCE_NOMINAL_S / reading)
            cache = ResultCache(cache_dir=cache_dir)
            with ReferenceSampler() as host:
                cold, cold_report = run_cells(specs, jobs=jobs, cache=cache)
            warm, warm_report = run_cells(specs, jobs=jobs, cache=cache)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        for spec, cold_result, warm_result in zip(specs, cold, warm):
            label = spec_label(spec)
            reference = out.reference.setdefault(label, cold_result)
            out.check(
                result_problems(label + " warm vs cold", cold_result, warm_result)
                + result_problems(label + " repeat", reference, cold_result))
        seconds_per_cell = [cell.seconds for cell in cold_report.cells]
        cell_seconds += seconds_per_cell
        wall = cold_report.wall_seconds
        out.reference_s.extend(host.readings)
        # The pool's cells run in workers, so a transaction's host time
        # is its cell's seconds (set-up included) per transaction.
        for cell_s, spec in zip(seconds_per_cell, specs):
            out.sample(out.tx, spec_label(spec),
                       cell_s * host.scale / spec.n_transactions)
        out.sample(out.cells, "cold pass", wall * host.scale)
        out.sample(out.phase, "cold pass", wall * host.scale)
        out.cells_per_item = len(specs)
        out.phase_tx = sum(spec.n_transactions for spec in specs)
        experiments["experiments.parallel_efficiency"].append(
            sum(seconds_per_cell) / (wall * jobs))
        experiments["experiments.warm_sweep_s"].append(warm_report.wall_seconds)
        experiments["experiments.cache_hit_ratio"].append(
            warm_report.hits / len(warm_report.cells))
        if round_index == 0:
            results = list(cold)
            out.sim = grid_sim_metrics(specs, results)
            out.attachments = {
                spec_label(spec): attachment(r) for spec, r in zip(specs, results)
            }
            if traced:
                replicate_in_process(out, specs, results)
    out.layers = {name: median(values) for name, values in experiments.items()}
    out.layers["experiments.cell_s_p50"] = median(cell_seconds)
    out.layers["experiments.cell_s_max"] = max(cell_seconds)
    out.attachments["jobs"] = jobs
    return out


def replicate_in_process(out: Outcome, specs, pool_results) -> None:
    """Re-run the MorLog-SLDE cells in this process, plain and traced.

    Each replica must equal the result the pool produced untraced; the
    traced replicas give this workload its simulator-layer spans.
    """
    for spec, pool_result in zip(specs, pool_results):
        if spec.design != RECORD_DESIGN:
            continue
        label = spec_label(spec)
        out.execute(
            label + " in-process",
            lambda spans: direct_cell(
                spec.design, spec.workload, params_from_dict(spec.params_dict),
                spec.n_transactions, spec.n_threads,
                config_from_dict(spec.config_dict), spans),
            extra=lambda run: result_problems(
                label + " in-process vs pool", pool_result, run.result),
        )


# ----------------------------------------------------------------------
# traffic-mix
# ----------------------------------------------------------------------

def traffic_config(seed: int, cell: int) -> TrafficConfig:
    """Scenario ``cell`` of the run with ``seed``, from its own sub-seed."""
    return TrafficConfig(
        offered_tx_per_s=TRAFFIC_LOAD, arrivals=TRAFFIC_ARRIVALS,
        n_tenants=TRAFFIC_TENANTS, zipf_theta=TRAFFIC_ZIPF,
        seed=seed * TRAFFIC_CELLS + cell)


def traffic_cell(config: TrafficConfig, spans=None, setup_only=False) -> CellRun:
    """Drive one open-loop scenario with a probe on the system it builds.

    The engine builds its System and MixtureWorkload internally, so the
    engine module's two constructors are swapped for ones that attach
    the probe (and spans) to the instances, then restored.  With
    ``setup_only`` the scenario stops as its first transaction starts,
    and the run has no result.
    """
    start = clock()
    probes: List[TxProbe] = []
    latencies: List[float] = []
    queue_ns: List[float] = []

    def build(design, config=None, trace=None):
        system = make_system(design, config, trace=trace)
        if spans is not None:
            spans.install(system)
        probes.append(TxProbe(system, stop=setup_only))
        inner = system.dispatch_transaction

        def dispatch_transaction(core, body, arrival_ns=None):
            start_ns, finish_ns = inner(core, body, arrival_ns=arrival_ns)
            latencies.append(finish_ns - arrival_ns)
            queue_ns.append(start_ns - arrival_ns)
            return start_ns, finish_ns

        system.dispatch_transaction = dispatch_transaction
        return system

    def mixture(*args, **kwargs):
        workload = MixtureWorkload(*args, **kwargs)
        if spans is not None:
            spans.install_workload(workload)
        return workload

    saved = traffic_engine.make_system, traffic_engine.MixtureWorkload
    traffic_engine.make_system, traffic_engine.MixtureWorkload = build, mixture
    try:
        drive = run_traffic_system
        if spans is not None:
            drive = spans.wrap(run_traffic_system, "traffic.engine")
        result, system = drive(TRAFFIC_DESIGN, config)
    except SetupDone:
        result, system = None, None
    finally:
        traffic_engine.make_system, traffic_engine.MixtureWorkload = saved
    run = CellRun(result, system, probes[0], start, clock())
    run.latencies, run.queue_ns = latencies, queue_ns
    return run


def traffic_setup_s(config: TrafficConfig) -> float:
    """Scaled host seconds of one scenario's set-up, timed as a measured
    cell's."""
    return fresh(lambda spans: traffic_cell(config, spans, setup_only=True),
                 None).scaled_setup_s


def traffic_mix(seed: int, seconds: float, traced: bool, workdir: str) -> Outcome:
    out = Outcome(traced)
    configs = [traffic_config(seed, cell) for cell in range(TRAFFIC_CELLS)]
    first: List[CellRun] = []
    for round_index in out.rounds(seconds, TRAFFIC_ROUNDS):
        for cell, config in enumerate(configs):
            label = "traffic/%d" % cell
            run = out.execute(
                label,
                lambda spans: traffic_cell(config, spans),
                extra=lambda run: traffic_problems(run.result, run.latencies),
            )
            out.measure(label, run)
            if round_index == 0:
                first.append(run)
                result = run.result
                out.attachments["%s/%d" % (TRAFFIC_DESIGN, cell)] = dict(
                    attachment(result), seed=config.seed,
                    arrivals=result.arrivals, dropped=result.dropped,
                    p99_latency_ns=result.p99_latency_ns,
                    p99_queue_ns=result.p99_queue_ns)
    results = [run.result for run in first]
    completed = sum(r.completed for r in results)
    makespan_ns = sum(r.makespan_ns for r in results)
    out.sim = {
        "sim_ns_per_tx": makespan_ns / completed,
        "nvm_bits_per_tx": sum(r.stats.get("bits_written", 0.0) for r in results) / completed,
        "nvm_energy_pj_per_tx": sum(r.stats.get("energy_pj", 0.0) for r in results) / completed,
        "goodput_tx_per_s": completed / (makespan_ns * 1e-9),
        **latency_metrics([ns for run in first for ns in run.latencies]),
    }
    out.layers = {
        "traffic.queue_p99_ns": percentile([ns for run in first for ns in run.queue_ns], 0.99),
        "traffic.drop_ratio": sum(r.dropped for r in results) / sum(r.arrivals for r in results),
        "traffic.max_queue_depth": max(r.max_queue_depth for r in results),
    }
    for cell, config in enumerate(configs * TRAFFIC_SETUPS):
        out.sample(out.setup, "traffic/%d" % (cell % TRAFFIC_CELLS),
                   traffic_setup_s(config))
    return out


WORKLOADS = {
    "direct-macro": direct_macro,
    "grid-micro": grid_micro,
    "replay-registry": replay_registry,
    "traffic-mix": traffic_mix,
}
