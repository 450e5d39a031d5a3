#!/usr/bin/env python3
"""Crash-recovery demo: atomic persistence under power loss.

Runs a persistent hash-table workload, cuts power at a random store, and
shows that recovery leaves every transaction all-or-nothing — including
the delay-persistence protocol, where a suffix of committed transactions
may be sacrificed but never torn.

Run with:  python examples/crash_recovery_demo.py
"""

import random

from repro.common.config import LoggingConfig, SystemConfig
from repro.core import make_system
from repro.core.system import CrashInjected
from repro.faultinject import CrashAtTxPoint
from repro.workloads import make_workload
from repro.workloads.base import WorkloadParams

CONFIG = SystemConfig(logging=LoggingConfig(log_region_bytes=1 << 21))


def crash_run(design: str, crash_at: int, seed: int = 1234) -> None:
    system = make_system(design, CONFIG)
    workload = make_workload(
        "hash", WorkloadParams(initial_items=64, key_space=128, seed=seed)
    )
    workload.setup(system, 2)
    system.reset_measurement()

    # Power fails at the crash_at-th transactional store or commit.
    system.install_crash_plan(CrashAtTxPoint(crash_at))
    committed = 0
    try:
        while True:
            core = min(range(2), key=system.core_time_ns.__getitem__)
            system.run_transaction(core, workload.transaction(core))
            committed += 1
    except CrashInjected:
        pass

    state = system.recover(verify_decode=True)
    lost = committed - len(state.persisted_txids & set(range(1, committed + 1)))
    print(
        "%-13s crash@store %4d | %3d committed | %3d persisted after "
        "recovery | %d sacrificed (DP only) | %d log records"
        % (
            design,
            crash_at,
            committed,
            len(state.persisted_txids),
            max(lost, 0) if design.endswith("DP") else 0,
            len(state.records),
        )
    )


def main() -> None:
    rng = random.Random(7)
    for design in ("FWB-CRADE", "MorLog-SLDE", "MorLog-DP"):
        for _ in range(3):
            crash_run(design, crash_at=rng.randrange(20, 800))
    print("\nEvery run above recovered to a transaction-consistent state "
          "(decode path verified word by word).")


if __name__ == "__main__":
    main()
