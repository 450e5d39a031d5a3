"""Crash plans: named persist-boundary crash points and schedules.

Every component that can mutate the persistence domain fires a *crash
point* just before (and, where ordering proofs need it, just after) the
mutation.  A :class:`CrashPlan` installed via
:meth:`repro.core.system.System.install_crash_plan` observes the fired
events in execution order and may raise
:class:`~repro.core.system.CrashInjected` at any of them — which models a
power cut at exactly that boundary: all volatile state (caches, log
buffers, L1 log-state bits) is lost and only the NVMM array survives.

Because the simulator is deterministic, the global event index alone
identifies a crash state: rerunning the same (design, workload, seed,
threads) and crashing at the same index reproduces the same persistence
domain bit for bit.  That is what makes counterexample schedules
replayable.

The crash-point catalogue (see docs/fault_injection.md).  The persist
steps every logger shares fire theirs from ``logging_hw/base.py``:
``forced-writeback`` on each undo-style commit (Undo-CRADE, Ckpt-Undo,
InCLL-CRADE, CoW-Page) and ``wal-flush`` on any logger's write-ahead
flush (FWB, undo-only, MorLog's undo+redo buffer).

==================  =====================================================
point               fired
==================  =====================================================
tx-store            before a transactional store enters the logger
tx-nt-store         before a non-temporal transactional store is logged
tx-commit           before the commit sequence starts
log-append          before a log entry is written to the log region
undo-persisted      after an undo-carrying entry reached the log region
redo-persisted      after a redo entry reached the log region
commit-record       before the commit record is written
commit-persisted    after the commit record reached the log region
data-writeback      before any in-place NVMM line write programs cells
redo-drain          before MorLog turns a ULOG word into a redo entry
nt-flush            before buffered non-temporal redo entries are forced
forced-writeback    before an undo-style commit force-writes a line
stage-release       before redo-only logging releases a staged line
wal-flush           before a logger's write-ahead flush at an LLC evict
log-truncate        before the truncated head pointer is persisted
fwb-scan            before a force-write-back scan starts
embedded-write      before an InCLL embedded slot/epoch word is written
page-table-write    before a CoW page-table header or watermark persists
page-flip           before CoW paging's atomic commit flip is persisted
log-compaction      before a checkpoint compacts the covered log prefix
==================  =====================================================

Crashing *before* each NVMM mutation is sufficient for exhaustiveness:
the persistent state after mutation ``k`` equals the state immediately
before mutation ``k+1``, so the pre-points enumerate every distinct
crash state.  The post-points (``*-persisted``) add named completion
markers the invariant checker uses for durability reasoning.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: All crash-point names, in rough execution-order groups.
CRASH_POINTS = (
    "tx-store",
    "tx-nt-store",
    "tx-commit",
    "log-append",
    "undo-persisted",
    "redo-persisted",
    "commit-record",
    "commit-persisted",
    "data-writeback",
    "redo-drain",
    "nt-flush",
    "forced-writeback",
    "stage-release",
    "wal-flush",
    "log-truncate",
    "fwb-scan",
    "embedded-write",
    "page-table-write",
    "page-flip",
    "log-compaction",
)

_POINT_SET = frozenset(CRASH_POINTS)


@dataclass(frozen=True)
class CrashEvent:
    """One fired crash point (1-based global index)."""

    index: int
    point: str
    detail: Tuple[Tuple[str, int], ...] = ()

    def detail_dict(self) -> Dict[str, int]:
        return dict(self.detail)


def _freeze_detail(detail: Dict[str, int]) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted(detail.items()))


class CrashPlan:
    """Base plan: observes fired crash points, never crashes.

    Subclasses override :meth:`on_event`; :meth:`fire` handles indexing
    and point-name validation.  ``fire`` is called on hot paths, so the
    components guard the call with a ``plan is not None`` check.
    """

    def __init__(self) -> None:
        self.fired = 0
        self.per_point: Dict[str, int] = {}

    def fire(self, point: str, **detail: int) -> None:
        if point not in _POINT_SET:
            raise ValueError("unknown crash point %r" % point)
        self.fired += 1
        self.per_point[point] = self.per_point.get(point, 0) + 1
        self.on_event(CrashEvent(self.fired, point, _freeze_detail(detail)))

    def on_event(self, event: CrashEvent) -> None:
        """Subclass hook; may raise CrashInjected to cut power here."""


class CountingPlan(CrashPlan):
    """Counts events without crashing (the enumeration pre-pass)."""

    def __init__(self, keep_trace: bool = False) -> None:
        super().__init__()
        self.trace: List[CrashEvent] = []
        self._keep_trace = keep_trace

    def on_event(self, event: CrashEvent) -> None:
        if self._keep_trace:
            self.trace.append(event)


class CrashAt(CrashPlan):
    """Raise :class:`CrashInjected` at the ``crash_index``-th event.

    Used by schedule replay: the deterministic run guarantees the same
    event sits at the same index, so the crash lands on the same
    persist boundary as the recorded counterexample.
    """

    def __init__(self, crash_index: int) -> None:
        super().__init__()
        if crash_index < 1:
            raise ValueError("crash index is 1-based")
        self.crash_index = crash_index
        self.crash_event: Optional[CrashEvent] = None

    def on_event(self, event: CrashEvent) -> None:
        from repro.core.system import CrashInjected

        if event.index == self.crash_index:
            self.crash_event = event
            raise CrashInjected()


class CrashAtTxPoint(CrashPlan):
    """Raise :class:`CrashInjected` at the ``n``-th transactional store
    (``tx-store``, ``tx-nt-store``) or commit (``tx-commit``), and at
    every one after it: a machine that lost power stays down."""

    TX_POINTS = frozenset(("tx-store", "tx-nt-store", "tx-commit"))

    def __init__(self, n: int) -> None:
        super().__init__()
        if n < 1:
            raise ValueError("crash count is 1-based")
        self.remaining = n

    def on_event(self, event: CrashEvent) -> None:
        from repro.core.system import CrashInjected

        if event.point in self.TX_POINTS:
            self.remaining -= 1
            if self.remaining <= 0:
                raise CrashInjected()
