"""Periodic checkpointing with log compaction over the undo logger.

The tef-undolog line of systems compacts an append-only undo log by
periodically checkpointing live data and dropping every record the
checkpoint superseded.  Layered on :class:`UndoOnlyLogger`: after every
``checkpoint_interval_tx`` commits the logger takes a checkpoint — two
force-write-back scans push every dirty line into NVMM (the first scan
flags, the second writes back, so two passes persist everything) — and
then compacts the log, truncating every entry and commit record of the
transactions the checkpoint covered, *without* waiting for the run-loop's
two-scan truncation horizon.

That makes the recovery-time-vs-interval tradeoff measurable: a small
interval keeps the log short (recovery scans and rolls back almost
nothing, at the cost of checkpoint write bursts); a large interval leaves
the whole history live.  Recovery itself is unchanged from the undo-only
scheme — compaction only ever drops entries whose data the checkpoint
already persisted in place, which the oracle observes as
"committed-but-truncated implies applied".

Crash points: ``fwb-scan`` fires before each checkpoint scan (the same
boundary the run loop instruments) and ``log-compaction`` fires between
the scans and the truncation — the window where a crash leaves a
fully-checkpointed but not-yet-compacted log.
"""

from typing import Optional, Set

from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.logging_hw.region import LogRegion
from repro.logging_hw.undo_only import UndoOnlyLogger
from repro.memory.controller import MemoryController


class CheckpointUndoLogger(UndoOnlyLogger):
    """Undo logging plus periodic checkpoint + log compaction."""

    name = "ckpt-undo"

    def __init__(
        self,
        config: SystemConfig,
        controller: MemoryController,
        region: LogRegion,
        stats: Optional[StatGroup] = None,
    ) -> None:
        super().__init__(config, controller, region, stats)
        self._interval = config.logging.checkpoint_interval_tx
        self._since_checkpoint = 0
        # Txids committed since the last checkpoint, and all commits.
        self._committed: Set[int] = set()
        self._n_committed = 0

    def commit_tx(self, tx, now_ns: float) -> float:
        now_ns = super().commit_tx(tx, now_ns)
        self._n_committed += 1
        if not self._interval:
            return now_ns
        self._committed.add(tx.txid)
        self._since_checkpoint += 1
        if self._since_checkpoint >= self._interval:
            now_ns = self._checkpoint(now_ns)
        return now_ns

    def _checkpoint(self, now_ns: float) -> float:
        """Persist all dirty data, then drop the log entries it covers.

        Runs at a commit boundary, where no transaction is in flight —
        so every live log entry belongs to a committed transaction and
        the compaction can free the entire covered prefix.
        """
        self._since_checkpoint = 0
        self.stats.add("checkpoints")
        # Leftover buffered entries (none in the common case: commit just
        # flushed this transaction's) persist first — write-ahead holds.
        now_ns, _accept = self._persist_many(self.buffer.pop_all(), now_ns)
        if self.hierarchy is not None:
            for _ in range(2):
                if self.crash_plan is not None:
                    self.crash_plan.fire("fwb-scan")
                now_ns = self.hierarchy.force_write_back_scan(now_ns)
        covered = self._committed
        if self.crash_plan is not None:
            # Crash here: data fully checkpointed, log not yet compacted
            # — recovery must tolerate re-seeing the superseded entries.
            self.crash_plan.fire("log-compaction", covered=self._n_committed)
        freed = self.region.truncate(lambda e: e.txid in covered, now_ns)
        # No transaction is in flight here, so the covered prefix was the
        # whole log: none of these txids has a live entry left.
        covered.clear()
        self.stats.add("checkpoint_compacted_entries", freed)
        if self.tracer is not None:
            self.tracer.emit(
                "checkpoint", "log", now_ns,
                compacted=freed, covered=self._n_committed,
            )
            self.tracer.emit(
                "word-state", "word-state", now_ns,
                **{"from": "ULOG", "to": "CKPT"},
            )
        return now_ns
