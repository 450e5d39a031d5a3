"""Crash-point fault injection and systematic recovery verification.

The subsystem instruments every persist-boundary event of the simulated
machine with a named crash point (:mod:`repro.faultinject.plan`), drives
workloads under a deterministic crash-point scheduler that checks the
recovery invariants at each point (:mod:`repro.faultinject.sweep`,
:mod:`repro.faultinject.oracle`), and ships deliberately broken logger
mutants that the sweep must catch (:mod:`repro.faultinject.mutants`).

Entry points:

- ``repro fault-sweep`` (CLI) — enumerate crash points for one workload
  across logging designs and report violations with replayable schedules;
- :func:`repro.faultinject.sweep.run_sweep` — the same, programmatically;
- :func:`repro.faultinject.sweep.replay_schedule` — re-execute a recorded
  counterexample schedule with a real injected crash.
"""

from repro.faultinject.plan import (
    CRASH_POINTS,
    CountingPlan,
    CrashAt,
    CrashAtTxPoint,
    CrashEvent,
    CrashPlan,
)
from repro.faultinject.sweep import (
    CrashSchedule,
    SweepOptions,
    SweepResult,
    replay_schedule,
    run_sweep,
)

__all__ = [
    "CRASH_POINTS",
    "CountingPlan",
    "CrashAt",
    "CrashAtTxPoint",
    "CrashEvent",
    "CrashPlan",
    "CrashSchedule",
    "SweepOptions",
    "SweepResult",
    "replay_schedule",
    "run_sweep",
]
