"""Crash-under-peak-load: traffic engine × fault injector composition.

Runs an open-loop scenario, cuts power once a chosen fraction of the
arrivals has been dispatched — i.e. mid-backlog, when the log region is
as full as the offered load can make it — then measures log occupancy
and runs recovery.  Sweeping the offered load yields the
recovery-time-vs-log-occupancy curve: higher load → deeper queues →
more in-flight/undrained transactions at the cut → more live log
entries → more recovery work.
"""

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Sequence

from repro.faultinject.occupancy import RecoveryProfile, recovery_profile
from repro.traffic.engine import TrafficConfig, run_traffic_system


@dataclass(frozen=True)
class CrashLoadPoint:
    """One (offered load → occupancy → recovery) measurement."""

    design: str
    offered_tx_per_s: float
    crash_at_arrival: int
    crashed: bool
    completed: int
    profile: RecoveryProfile

    def to_dict(self) -> Dict[str, Any]:
        return {
            "design": self.design,
            "offered_tx_per_s": self.offered_tx_per_s,
            "crash_at_arrival": self.crash_at_arrival,
            "crashed": self.crashed,
            "completed": self.completed,
            "profile": self.profile.to_dict(),
        }


def run_crash_under_load(
    design: str,
    traffic: TrafficConfig,
    config=None,
    crash_fraction: float = 0.8,
    verify_decode: bool = False,
) -> CrashLoadPoint:
    """Crash one scenario near its load peak and profile recovery."""
    if not 0.0 < crash_fraction <= 1.0:
        raise ValueError("crash_fraction must be in (0, 1]")
    crash_at = max(int(crash_fraction * traffic.arrivals) - 1, 0)
    result, system = run_traffic_system(
        design, traffic, config=config, crash_at_arrival=crash_at)
    profile = recovery_profile(system, verify_decode=verify_decode)
    return CrashLoadPoint(
        design=design,
        offered_tx_per_s=traffic.offered_tx_per_s,
        crash_at_arrival=crash_at,
        crashed=result.crashed,
        completed=result.completed,
        profile=profile,
    )


def crash_recovery_curve(
    design: str,
    loads: Sequence[float],
    traffic: TrafficConfig,
    config=None,
    crash_fraction: float = 0.8,
) -> List[CrashLoadPoint]:
    """One crash point per offered load — the occupancy/recovery curve."""
    return [
        run_crash_under_load(
            design,
            replace(traffic, offered_tx_per_s=load),
            config=config,
            crash_fraction=crash_fraction,
        )
        for load in loads
    ]
