"""Recovery invariants checked at every crash point.

The oracle replays the recorded per-transaction write sets over the
pre-crash values and compares the recovered persistence domain word by
word, exactly like the hand-written crash tests — but packaged so the
sweep scheduler can run it at *every* persist boundary:

1. **Durability** (default commit protocol): every transaction whose
   ``end_tx`` completed before the crash is applied after recovery.
2. **Commit-order prefix**: the applied transactions form a prefix of
   the commit order (this is the whole guarantee under the
   delay-persistence protocol, and implied by durability otherwise).
3. **Atomicity + exact values**: each transaction's write set is
   entirely applied or entirely absent, with no torn words — every
   touched word must equal the oracle's replayed value.
4. **Idempotence**: running recovery a second time changes nothing.
5. **Delay-persistence accounting**: the persisted set recovered from
   the ``ulog`` counters is a timestamp prefix of *all* scanned commit
   records.
"""

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.logging_hw.entries import EntryType

#: Cap on divergent words kept per violation (reporting only).
MAX_DIVERGENT_WORDS = 8


class WriteSetTracker:
    """Records each transaction's oldest-old / newest-new value per word.

    Doubles as the ``system.trace`` tap and as the commit-order journal
    the sweep driver feeds after each successful ``end_tx``.
    """

    def __init__(self) -> None:
        # txid -> {addr: [oldest old value, newest new value]}
        self.tx_writes: Dict[int, Dict[int, List[int]]] = {}
        # txids in the order their end_tx completed.
        self.committed: List[int] = []

    def on_tx_store(self, tid: int, txid: int, addr: int, old: int, new: int) -> None:
        writes = self.tx_writes.setdefault(txid, {})
        slot = writes.get(addr)
        if slot is None:
            writes[addr] = [old, new]
        else:
            slot[1] = new

    def on_commit(self, txid: int) -> None:
        self.committed.append(txid)


@dataclass(frozen=True)
class Violation:
    """One failed recovery invariant at one crash state."""

    kind: str       # durability | prefix | values | idempotence | dp-accounting
    message: str
    # (addr, actual, expected) triples, capped at MAX_DIVERGENT_WORDS.
    words: Tuple[Tuple[int, int, int], ...] = ()

    def format(self) -> str:
        lines = ["[%s] %s" % (self.kind, self.message)]
        for addr, actual, expected in self.words:
            lines.append(
                "  word %#x: recovered %#x, expected %#x" % (addr, actual, expected)
            )
        return "\n".join(lines)


def expected_image(
    tracker: WriteSetTracker, applied: Set[int]
) -> Dict[int, int]:
    """The word values recovery must produce, from the write sets.

    Applied transactions contribute their newest values (replayed in
    txid order — begin order, which matches commit order within a
    thread; threads write disjoint shards); everything else contributes
    its *oldest* old value, first writer wins.
    """
    expected: Dict[int, int] = {}
    for txid in sorted(tracker.tx_writes):
        writes = tracker.tx_writes[txid]
        if txid in applied:
            for addr, (_old, new) in writes.items():
                expected[addr] = new
        else:
            for addr, (old, _new) in writes.items():
                if addr not in expected:
                    expected[addr] = old
    return expected


def check_crash_state(system, tracker: WriteSetTracker, verify_decode: bool = True):
    """Run recovery against the current persistence domain and verify it.

    Returns ``(recovered_state, violations)``.  Mutates the NVMM array's
    logical values (recovery rolls words forward/back); callers probing a
    *live* run must wrap the call in
    ``system.controller.nvm.array.journaled_logical_writes()``.
    """
    violations: List[Violation] = []
    array = system.controller.nvm.array
    delay_persistence = system.config.logging.delay_persistence

    state = system.recover(verify_decode=verify_decode)
    applied = set(state.persisted_txids)

    # A committed transaction with no trace left in the log was truncated
    # — which the log controller only does once its in-place data are
    # persistent, so it counts as applied.  (If truncation fired too
    # early, the value oracle below catches the stale in-place words.)
    seen = {r.meta.txid for r in state.records}
    applied.update(
        txid for txid in tracker.committed if txid not in seen
    )

    # 1. Durability (default protocol only: commit implies persistence).
    if not delay_persistence:
        missing = [txid for txid in tracker.committed if txid not in applied]
        if missing:
            violations.append(
                Violation(
                    "durability",
                    "committed transactions lost by recovery: %s" % missing,
                )
            )

    # 2. Commit-order prefix over the transactions the program saw commit.
    flags = [txid in applied for txid in tracker.committed]
    if False in flags and True in flags[flags.index(False):]:
        violations.append(
            Violation(
                "prefix",
                "applied set is not a prefix of commit order: %s"
                % list(zip(tracker.committed, flags)),
            )
        )

    # 5. Delay-persistence accounting: the ulog-derived persisted set must
    # be a timestamp prefix of every commit record found in the log.
    if delay_persistence:
        commits = sorted(
            (r for r in state.records if r.meta.type is EntryType.COMMIT),
            key=lambda r: r.meta.timestamp,
        )
        cflags = [r.meta.txid in applied for r in commits]
        if False in cflags and True in cflags[cflags.index(False):]:
            violations.append(
                Violation(
                    "dp-accounting",
                    "ulog accounting persisted a non-prefix of the commit "
                    "records: %s" % [(r.meta.txid, f) for r, f in zip(commits, cflags)],
                )
            )

    # 3. Atomicity + exact values (also catches torn words: a word that is
    # neither its old nor its new value diverges from the oracle).
    expected = expected_image(tracker, applied)
    divergent = []
    for addr, value in expected.items():
        actual = system.persistent_word(addr)
        if actual != value:
            divergent.append((addr, actual, value))
    if divergent:
        divergent.sort()
        violations.append(
            Violation(
                "values",
                "%d corrupted words after recovery" % len(divergent),
                tuple(divergent[:MAX_DIVERGENT_WORDS]),
            )
        )

    # 4. Idempotence: a second recovery run must be a no-op.
    touched = {
        r.meta.addr
        for r in state.records
        if r.meta.type is not EntryType.COMMIT
    }
    first_pass = {addr: array.read_logical(addr) for addr in touched}
    second = system.recover(verify_decode=False)
    if second.persisted_txids != state.persisted_txids:
        violations.append(
            Violation(
                "idempotence",
                "second recovery changed the persisted set: %s != %s"
                % (sorted(second.persisted_txids), sorted(state.persisted_txids)),
            )
        )
    drifted = [
        (addr, array.read_logical(addr), value)
        for addr, value in first_pass.items()
        if array.read_logical(addr) != value
    ]
    if drifted:
        drifted.sort()
        violations.append(
            Violation(
                "idempotence",
                "%d words drifted on the second recovery run" % len(drifted),
                tuple(drifted[:MAX_DIVERGENT_WORDS]),
            )
        )

    return state, violations
