"""Deterministic crash-point enumeration and recovery verification.

The sweep drives a workload exactly like :meth:`System.run` (same
dispatch order, same RNG seeds) with a crash plan installed, and at each
fired crash point asks: *if power were cut right here, would recovery
produce a consistent state?*  Because recovery reads only the NVMM array
and the probe journals its logical writes, the question is answered
in-line — one workload execution checks every crash point, instead of
re-running the workload once per point.

Modes:

- **exhaustive** (``budget=0``): every fired event is checked — feasible
  for short runs and the shape the acceptance bar requires;
- **sampled** (``budget=N``): a seeded-random subset of N event indices,
  chosen after a counting pre-pass, for long runs.  The subset is a pure
  function of (seed, budget, total events), so sampled sweeps are
  replayable too.

A violation yields a :class:`Counterexample` carrying the *minimal*
crash schedule (events are checked in execution order, so the first
failure has the smallest index) and the divergent words.  The schedule
is a small JSON document; :func:`replay_schedule` re-executes it with a
real injected crash (volatile state actually lost) to confirm the
failure outside the in-line probe.
"""

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.common.config import (
    CacheConfig,
    CacheLevelConfig,
    CoreConfig,
    LoggingConfig,
    NVMConfig,
    SystemConfig,
)
from repro.core.designs import available_designs, make_system
from repro.core.system import CrashInjected, System
from repro.faultinject.mutants import apply_mutant
from repro.faultinject.oracle import Violation, WriteSetTracker, check_crash_state
from repro.faultinject.plan import CountingPlan, CrashAt, CrashEvent, CrashPlan
from repro.workloads.base import WorkloadParams, make_workload

#: Short aliases for the sweep's design matrix.  The acceptance set is
#: the four logging *schemes* (morphable, undo-only, redo-only, FWB).
DESIGN_ALIASES: Dict[str, str] = {
    "morlog": "MorLog-SLDE",
    "morlog-dp": "MorLog-DP",
    "fwb": "FWB-CRADE",
    "undo-only": "Undo-CRADE",
    "redo-only": "Redo-CRADE",
    "incll": "InCLL-CRADE",
    "paging": "CoW-Page",
    "ckpt-undo": "Ckpt-Undo",
}

DEFAULT_SWEEP_DESIGNS = ("morlog", "undo-only", "redo-only", "fwb")

#: The comparative-testbed extensions, swept alongside the default set
#: by the acceptance suite and the designs-smoke CI job.
EXTENSION_SWEEP_DESIGNS = ("incll", "paging", "ckpt-undo")


def resolve_design(name: str) -> str:
    """Map an alias or full design name to the factory's design name."""
    full = DESIGN_ALIASES.get(name.lower(), name)
    if full not in available_designs(include_ablation=True, include_extensions=True):
        raise ValueError(
            "unknown design %r (aliases: %s)" % (name, ", ".join(sorted(DESIGN_ALIASES)))
        )
    return full


def sweep_system_config(**logging_overrides) -> SystemConfig:
    """A small, fast machine for crash sweeps (mirrors the test config)."""
    defaults = dict(log_region_bytes=256 * 1024, fwb_interval_cycles=200_000)
    defaults.update(logging_overrides)
    return SystemConfig(
        cores=CoreConfig(n_cores=4),
        caches=CacheConfig(
            l1=CacheLevelConfig(4 * 1024, 4, 64, 4),
            l2=CacheLevelConfig(16 * 1024, 4, 64, 12),
            l3=CacheLevelConfig(64 * 1024, 8, 64, 28, shared=True),
        ),
        nvm=NVMConfig(size_bytes=64 * 1024 * 1024),
        logging=LoggingConfig(**defaults),
    )


@dataclass(frozen=True)
class CrashSchedule:
    """Everything needed to reproduce one crash state bit for bit."""

    design: str
    workload: str
    transactions: int
    threads: int
    seed: int
    crash_index: int
    point: str = ""
    mutant: Optional[str] = None
    fwb_interval_cycles: Optional[int] = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "design": self.design,
                "workload": self.workload,
                "transactions": self.transactions,
                "threads": self.threads,
                "seed": self.seed,
                "crash_index": self.crash_index,
                "point": self.point,
                "mutant": self.mutant,
                "fwb_interval_cycles": self.fwb_interval_cycles,
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "CrashSchedule":
        data = json.loads(text)
        return CrashSchedule(
            design=data["design"],
            workload=data["workload"],
            transactions=int(data["transactions"]),
            threads=int(data["threads"]),
            seed=int(data["seed"]),
            crash_index=int(data["crash_index"]),
            point=data.get("point", ""),
            mutant=data.get("mutant"),
            fwb_interval_cycles=data.get("fwb_interval_cycles"),
        )


@dataclass
class Counterexample:
    """A crash state that violated a recovery invariant."""

    schedule: CrashSchedule
    event: CrashEvent
    violations: List[Violation]

    def format(self) -> str:
        lines = [
            "counterexample at crash point #%d (%s%s)"
            % (
                self.event.index,
                self.event.point,
                "".join(", %s=%#x" % kv for kv in self.event.detail),
            )
        ]
        for violation in self.violations:
            lines.append(violation.format())
        lines.append("replay schedule:")
        lines.append(self.schedule.to_json())
        return "\n".join(lines)


@dataclass
class SweepResult:
    """Outcome of sweeping one design."""

    design: str
    workload: str
    total_events: int
    checked_events: int
    per_point: Dict[str, int]
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


@dataclass(frozen=True)
class SweepOptions:
    """Knobs for one fault sweep."""

    workload: str = "hash"
    transactions: int = 10
    threads: int = 2
    seed: int = 7
    budget: int = 0            # 0 = exhaustive
    verify_decode: bool = True
    mutant: Optional[str] = None
    initial_items: int = 48
    key_space: int = 96
    # Lowering the FWB interval makes short sweeps reach the scan-driven
    # crash points (fwb-scan, redo-drain, data-writeback, log-truncate).
    fwb_interval_cycles: Optional[int] = None


class _SweepAbort(Exception):
    """Stops the drive loop once the first counterexample is recorded."""


class _SweepPlan(CrashPlan):
    """Probes recovery invariants at (a subset of) fired crash points."""

    def __init__(
        self,
        system: System,
        tracker: WriteSetTracker,
        selected: Optional[Set[int]],
        verify_decode: bool,
    ) -> None:
        super().__init__()
        self.system = system
        self.tracker = tracker
        self.selected = selected
        self.verify_decode = verify_decode
        self.checked = 0
        self.failure: Optional[Tuple[CrashEvent, List[Violation]]] = None

    def on_event(self, event: CrashEvent) -> None:
        if self.selected is not None and event.index not in self.selected:
            return
        self.checked += 1
        array = self.system.controller.nvm.array
        with array.journaled_logical_writes():
            _state, violations = check_crash_state(
                self.system, self.tracker, verify_decode=self.verify_decode
            )
        if violations:
            self.failure = (event, violations)
            raise _SweepAbort()


def _build(design: str, options: SweepOptions):
    """Fresh (system, workload, tracker) for one deterministic pass."""
    overrides = {}
    if options.fwb_interval_cycles is not None:
        overrides["fwb_interval_cycles"] = options.fwb_interval_cycles
    resolved = resolve_design(design)
    if resolved == "CoW-Page":
        # A 4 KiB page makes every crash-point probe restore hundreds of
        # words; a small page keeps the exhaustive sweep fast while still
        # exercising multi-line copies.  Both passes (and replay) share
        # the override, so schedules stay deterministic.
        overrides.setdefault("page_bytes", 256)
    system = make_system(resolved, sweep_system_config(**overrides))
    if options.mutant is not None:
        apply_mutant(system, options.mutant)
    workload = make_workload(
        options.workload,
        WorkloadParams(
            initial_items=options.initial_items,
            key_space=options.key_space,
            seed=options.seed,
        ),
    )
    return system, workload, WriteSetTracker()


def _drive(
    system: System,
    workload,
    tracker: WriteSetTracker,
    plan: CrashPlan,
    options: SweepOptions,
    trace=None,
) -> None:
    """Run the workload with ``plan`` installed, mirroring System.run.

    The run opens through ``System.start_run``; the dispatch loop is the
    sweep's own, because it reports each commit to ``tracker`` before
    the force-write-back scan.  The plan goes in only after setup (setup
    stores are untimed and unlogged, hence crash-free by construction).
    Raises CrashInjected or _SweepAbort out of the loop; normal
    completion returns None.

    ``trace`` (a :class:`repro.replay.StoreTrace`) swaps the workload for
    a recorded store stream: setup replays the trace's setup stores and
    the loop dispatches the recorded transactions on their recorded
    cores.  A trace recorded from the same (design-config, workload,
    seed) cell produces the identical sweep — same fired events, same
    verdict (pinned in tests/test_replay_differential.py).
    """
    bodies = cores = None
    if trace is None:
        system.start_run(
            options.threads, lambda: workload.setup(system, options.threads))
        limit = options.transactions
    else:
        from repro.replay.replayer import apply_trace_setup, trace_transaction_bodies

        system.start_run(options.threads, lambda: apply_trace_setup(system, trace))
        bodies = trace_transaction_bodies(trace)
        cores = trace.tx_core.tolist()
        limit = min(options.transactions, len(bodies))
    system.trace = tracker
    system.install_crash_plan(plan)
    try:
        dispatched = 0
        while dispatched < limit:
            if bodies is None:
                core = min(
                    range(options.threads), key=system.core_time_ns.__getitem__
                )
                body = workload.transaction(core)
            else:
                core = cores[dispatched]
                body = bodies[dispatched]
            tx = system.begin_tx(core)
            try:
                body(system.contexts[core])
                system.end_tx(core)
            except CrashInjected:
                system.current_tx[core] = None
                raise
            tracker.on_commit(tx.txid)
            system._maybe_force_write_back()
            dispatched += 1
    finally:
        system.install_crash_plan(None)
        system.trace = None


def _select_indices(options: SweepOptions, total: int) -> Optional[Set[int]]:
    """The event indices to check; None means all of them."""
    if options.budget <= 0 or options.budget >= total:
        return None
    rng = random.Random((options.seed, options.budget, total).__hash__())
    return set(rng.sample(range(1, total + 1), options.budget))


def run_sweep(
    design: str, options: SweepOptions = SweepOptions(), trace=None
) -> SweepResult:
    """Sweep every (or a budgeted subset of) crash points for one design.

    ``trace`` drives both passes from a recorded store stream instead of
    re-running the workload (see :func:`_drive`).  It must have been
    recorded on ``options.threads`` threads: its transactions run on
    their recorded cores while the force-write-back schedule follows the
    sweep's thread count.
    """
    if trace is not None and trace.n_threads != options.threads:
        raise ValueError(
            "trace was recorded on %d threads, the sweep runs %d"
            % (trace.n_threads, options.threads)
        )
    selected: Optional[Set[int]] = None
    if options.budget > 0:
        # Counting pre-pass: the run is deterministic, so the event total
        # (and each index's meaning) carries over to the sweep pass.
        system, workload, tracker = _build(design, options)
        counter = CountingPlan()
        _drive(system, workload, tracker, counter, options, trace=trace)
        selected = _select_indices(options, counter.fired)

    system, workload, tracker = _build(design, options)
    plan = _SweepPlan(system, tracker, selected, options.verify_decode)
    try:
        _drive(system, workload, tracker, plan, options, trace=trace)
    except _SweepAbort:
        pass

    counterexample = None
    if plan.failure is not None:
        event, violations = plan.failure
        schedule = CrashSchedule(
            design=resolve_design(design),
            workload=options.workload,
            transactions=options.transactions,
            threads=options.threads,
            seed=options.seed,
            crash_index=event.index,
            point=event.point,
            mutant=options.mutant,
            fwb_interval_cycles=options.fwb_interval_cycles,
        )
        counterexample = Counterexample(schedule, event, violations)
    return SweepResult(
        design=resolve_design(design),
        workload=options.workload,
        total_events=plan.fired,
        checked_events=plan.checked,
        per_point=dict(plan.per_point),
        counterexample=counterexample,
    )


@dataclass
class ReplayReport:
    """Outcome of re-executing a counterexample schedule."""

    schedule: CrashSchedule
    crashed: bool
    event: Optional[CrashEvent]
    violations: List[Violation]

    @property
    def reproduced(self) -> bool:
        return self.crashed and bool(self.violations)


def replay_schedule(schedule: CrashSchedule, verify_decode: bool = True) -> ReplayReport:
    """Re-execute a schedule with a *real* crash at its index.

    Unlike the in-line sweep probe, the replay actually loses all
    volatile state (the run stops dead at the crash point) before
    recovery runs — the strongest confirmation a counterexample can get.
    """
    options = SweepOptions(
        workload=schedule.workload,
        transactions=schedule.transactions,
        threads=schedule.threads,
        seed=schedule.seed,
        mutant=schedule.mutant,
        fwb_interval_cycles=schedule.fwb_interval_cycles,
    )
    system, workload, tracker = _build(schedule.design, options)
    plan = CrashAt(schedule.crash_index)
    crashed = False
    try:
        _drive(system, workload, tracker, plan, options)
    except CrashInjected:
        crashed = True
    violations: List[Violation] = []
    if crashed:
        _state, violations = check_crash_state(
            system, tracker, verify_decode=verify_decode
        )
    return ReplayReport(
        schedule=schedule,
        crashed=crashed,
        event=plan.crash_event,
        violations=violations,
    )
