"""Deliberately broken logger mutants (test-only).

Each mutant injects one specific persistence-ordering bug into a live
:class:`~repro.core.system.System`, modelling hardware that *believes* it
logged (all volatile bookkeeping proceeds normally) while the NVMM write
silently never happens.  The fault-sweep must catch every applicable
mutant with a replayable counterexample schedule; a mutant surviving a
sweep means the sweep's coverage regressed.

These exist purely to validate the fault-injection subsystem — never
enable one outside tests or the ``repro fault-sweep --mutant`` flag.
"""

from typing import Callable, Dict

from repro.logging_hw.entries import EntryType
from repro.nvm.timing import WriteSchedule


def _drop_entries(system, types) -> None:
    """Make persist_entry swallow entries of ``types`` without logging.

    The logger's post-persist bookkeeping (L1 word-state flips, stats)
    still runs, so the machine behaves as if the entry were durable —
    exactly the "ordering bug" shape a write-ahead violation takes.
    """
    logger = system.logger
    original = logger.persist_entry

    def mutated(entry, now_ns):
        if entry.type in types:
            logger.stats.add("mutant_dropped_entries")
            logger._entry_persisted(entry, now_ns)
            # The schedule of a write that never reached NVMM.
            return WriteSchedule(accept_ns=now_ns, finish_ns=now_ns, stall_ns=0.0)
        return original(entry, now_ns)

    logger.persist_entry = mutated


def drop_undo(system) -> None:
    """Skip persisting undo-carrying entries (UNDO and UNDO_REDO).

    Breaks write-ahead ordering for every design that relies on undo
    data: in-place updates of uncommitted transactions become
    unrecoverable, and committed MorLog/FWB transactions lose the redo
    half of their undo+redo entries.
    """
    _drop_entries(system, (EntryType.UNDO, EntryType.UNDO_REDO))


def drop_redo(system) -> None:
    """Skip persisting redo entries.

    Committed transactions of redo-only logging (and MorLog's lazily
    drained ULOG words) can no longer be rolled forward.
    """
    _drop_entries(system, (EntryType.REDO,))


def skip_wal_flush(system) -> None:
    """Disable the write-ahead flush at LLC write-backs.

    In-place data can now overtake their buffered log entries into NVMM
    — the classic steal-policy WAL violation.  Needs cache pressure (LLC
    evictions of lines with still-buffered entries) to manifest.
    """
    logger = system.logger

    def mutated(line_addr, now_ns):
        logger.stats.add("mutant_skipped_wal_flushes")
        return now_ns

    logger.before_llc_write_back = mutated


MUTANTS: Dict[str, Callable] = {
    "drop-undo": drop_undo,
    "drop-redo": drop_redo,
    "skip-wal": skip_wal_flush,
}


def apply_mutant(system, name: str) -> None:
    """Install the named mutant on a live system."""
    try:
        MUTANTS[name](system)
    except KeyError:
        raise ValueError(
            "unknown mutant %r (choose from %s)" % (name, ", ".join(sorted(MUTANTS)))
        )
