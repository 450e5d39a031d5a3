"""Log-occupancy accounting and recovery-work profiling after a crash.

The traffic engine's crash-under-peak-load composition needs two things
the fault injector never measured: *how full* the log region was when
power cut (occupancy scales with the backlog the arrival process built
up) and *how much work* recovery then performs.  This module reads both
off a crashed :class:`~repro.core.system.System` — occupancy from the
live-entry index, recovery work by actually running the PR-1 recovery
path — and adds a first-order recovery-time estimate from the NVM
timing model (sequential region scan plus one write per redone/undone
word), so recovery-time-vs-log-occupancy curves have a time axis.
"""

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.common.bitops import WORD_BYTES, WORDS_PER_LINE
from repro.logging_hw.region import LogRegion


def log_regions(system) -> List[LogRegion]:
    """The system's log regions as a flat list (1 unless distributed)."""
    return list(system.log_region.regions)


def log_occupancy(system) -> Dict[str, Any]:
    """Live-slot accounting across every log region, plus a fraction."""
    regions = log_regions(system)
    used = sum(region.used_slots() for region in regions)
    capacity = sum(region.capacity_slots for region in regions)
    return {
        "regions": len(regions),
        "live_entries": sum(len(region.live) for region in regions),
        "used_slots": used,
        "capacity_slots": capacity,
        "used_bytes": used * WORD_BYTES,
        "occupancy_fraction": (used / capacity) if capacity else 0.0,
    }


@dataclass(frozen=True)
class RecoveryProfile:
    """Occupancy at the crash plus the measured recovery work."""

    regions: int
    live_entries: int
    used_slots: int
    capacity_slots: int
    used_bytes: int
    occupancy_fraction: float
    committed_txids: int
    persisted_txids: int
    log_records: int
    redone_words: int
    undone_words: int
    estimated_recovery_ns: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "regions": self.regions,
            "live_entries": self.live_entries,
            "used_slots": self.used_slots,
            "capacity_slots": self.capacity_slots,
            "used_bytes": self.used_bytes,
            "occupancy_fraction": self.occupancy_fraction,
            "committed_txids": self.committed_txids,
            "persisted_txids": self.persisted_txids,
            "log_records": self.log_records,
            "redone_words": self.redone_words,
            "undone_words": self.undone_words,
            "estimated_recovery_ns": self.estimated_recovery_ns,
        }


def estimate_recovery_ns(system, used_slots: int, replayed_words: int) -> float:
    """First-order recovery time from the NVM timing parameters.

    Recovery scans the written portion of each region line-by-line
    (reads), then writes back one word per redone/undone location.  The
    estimate charges the per-access overhead plus read latency per
    scanned line and the worst-level program latency per replayed line
    — deliberately simple, but monotone in occupancy, which is what the
    recovery-vs-occupancy curve needs.
    """
    nvm = system.config.nvm
    scanned_lines = -(-used_slots // WORDS_PER_LINE)  # ceil
    replayed_lines = -(-replayed_words // WORDS_PER_LINE)
    read_ns = nvm.access_overhead_ns + nvm.read_latency_ns
    write_ns = nvm.access_overhead_ns + nvm.write_latency_ns(
        nvm.bits_per_cell - 1)
    return scanned_lines * read_ns + replayed_lines * write_ns


def recovery_profile(system, verify_decode: bool = False) -> RecoveryProfile:
    """Measure occupancy, run recovery, and profile the work done.

    Call on a system whose run ended in :class:`CrashInjected` — the
    persistence domain is still exactly as the power cut left it.
    """
    occupancy = log_occupancy(system)
    state = system.recover(verify_decode=verify_decode)
    replayed = state.redone_words + state.undone_words
    return RecoveryProfile(
        regions=occupancy["regions"],
        live_entries=occupancy["live_entries"],
        used_slots=occupancy["used_slots"],
        capacity_slots=occupancy["capacity_slots"],
        used_bytes=occupancy["used_bytes"],
        occupancy_fraction=occupancy["occupancy_fraction"],
        committed_txids=len(state.committed_txids),
        persisted_txids=len(state.persisted_txids),
        log_records=len(state.records),
        redone_words=state.redone_words,
        undone_words=state.undone_words,
        estimated_recovery_ns=estimate_recovery_ns(
            system, occupancy["used_slots"], replayed),
    )
