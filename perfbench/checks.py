"""Output checks: each returns a list of problems, empty when correct.

A cell whose check reports any problem counts as a failed operation in
the benchmark's result line.
"""

from typing import List

from repro.common.errors import RecoveryError
from repro.logging_hw.entries import EntryType
from repro.traffic import percentile

_DATA_ENTRIES = (EntryType.UNDO_REDO, EntryType.UNDO, EntryType.REDO)


def recovery_problems(system) -> List[str]:
    """Recover a drained machine and check that recovery was a no-op.

    After a clean run and drain every committed transaction is already
    persistent, so recovery (with codec decode verification) must leave
    every logged word as it was, and each logged word's coherent value
    must equal its persistent one.
    """
    before = {
        addr: slot.logical
        for addr, slot in system.controller.nvm.array.snapshot().items()
    }
    try:
        state = system.recover(verify_decode=True)
    except (RecoveryError, ValueError) as error:
        return ["recovery failed: %s: %s" % (type(error).__name__, error)]
    problems = []
    logged = sorted({r.meta.addr for r in state.records
                     if r.meta.type in _DATA_ENTRIES})
    for addr in logged:
        persistent = system.persistent_word(addr)
        old = before.get(addr, 0)  # an unwritten word reads as 0
        if persistent != old:
            problems.append("recovery changed logged word %#x: %#x -> %#x"
                            % (addr, old, persistent))
        coherent = system.coherent_word(addr)
        if coherent != persistent:
            problems.append("logged word %#x: coherent %#x != persistent %#x"
                            % (addr, coherent, persistent))
    return problems


def result_problems(label: str, expected, actual) -> List[str]:
    """Compare two RunResults (or TrafficResults) field by field."""
    if actual == expected:
        return []
    problems = []
    for name in ("transactions", "elapsed_ns", "completed", "makespan_ns"):
        if getattr(expected, name, None) != getattr(actual, name, None):
            problems.append("%s: %s %r != %r" % (
                label, name, getattr(actual, name, None),
                getattr(expected, name, None)))
    for key in sorted(set(expected.stats) | set(actual.stats)):
        if expected.stats.get(key) != actual.stats.get(key):
            problems.append("%s: stat %s %r != %r" % (
                label, key, actual.stats.get(key), expected.stats.get(key)))
    return problems or ["%s: results differ" % label]


def traffic_problems(result, latencies_ns: List[float]) -> List[str]:
    """Every arrival is accounted for (completed + dropped == arrivals),
    and the engine's p99 matches the latencies observed at dispatch."""
    problems = []
    if result.completed + result.dropped != result.arrivals:
        problems.append("traffic: completed %d + dropped %d != arrivals %d"
                        % (result.completed, result.dropped, result.arrivals))
    if percentile(latencies_ns, 0.99) != result.p99_latency_ns:
        problems.append("traffic: p99 latency %r != %r seen at dispatch"
                        % (result.p99_latency_ns, percentile(latencies_ns, 0.99)))
    return problems
