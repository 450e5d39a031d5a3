"""The simulated machine and its run loop.

A :class:`System` wires together the substrates — memory controller with
the NVMM module, three-level cache hierarchy, a hardware logger, per-core
clocks — and executes workload transactions on it.

Timing model (see DESIGN.md §3): each core owns a nanosecond clock that
advances by cache latencies, logger stalls and memory queue stalls; the run
loop always dispatches the next transaction on the core with the smallest
clock, which interleaves threads at transaction granularity.  Throughput is
transactions divided by the final maximum core time.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.cache.hierarchy import CacheHierarchy
from repro.common.bitops import WORD_BYTES
from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.core.transaction import TxContext
from repro.logging_hw.base import HardwareLogger, TransactionInfo
from repro.logging_hw.region import LiveEntry, LogRegion, LogRegionSet
from repro.memory.controller import MemoryController
from repro.memory.dram import DRAM_WRITE_NS


class CrashInjected(Exception):
    """Raised by crash-injection hooks to cut execution mid-transaction."""


@dataclass
class RunResult:
    """Metrics from one workload run."""

    transactions: int
    elapsed_ns: float
    stats: Dict[str, float]

    @property
    def throughput_tx_per_s(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.transactions / (self.elapsed_ns * 1e-9)

    @property
    def nvmm_writes(self) -> int:
        return int(
            self.stats.get("data_writes", 0)
            + self.stats.get("log_writes", 0)
            + self.stats.get("commit_writes", 0)
        )

    @property
    def nvmm_write_energy_pj(self) -> float:
        return self.stats.get("energy_pj", 0.0)

    @property
    def log_bits(self) -> int:
        return int(self.stats.get("log_bits", 0) + self.stats.get("commit_bits", 0))


class System:
    """One simulated machine running one hardware logging design, once."""

    def __init__(
        self,
        config: SystemConfig,
        logger_factory: Callable[..., HardwareLogger],
        design_name: str = "custom",
        trace_config=None,
    ) -> None:
        config.validate()
        self.config = config
        self.design_name = design_name
        self._ran = False
        self.stats = StatGroup("system")
        self.controller = MemoryController(config, self.stats)
        log_base = config.nvmm_base + config.nvm.size_bytes
        if config.logging.distributed_logs:
            self.log_region = LogRegionSet(
                self.controller,
                log_base,
                config.logging.log_region_bytes,
                config.cores.n_cores,
                self.stats,
                on_overflow=self._handle_log_overflow,
            )
        else:
            self.log_region = LogRegion(
                self.controller,
                log_base,
                config.logging.log_region_bytes,
                self.stats,
                on_overflow=self._handle_log_overflow,
            )
        self.logger = logger_factory(config, self.controller, self.log_region, self.stats)
        self.hierarchy = CacheHierarchy(config, self.controller, self.stats, self.logger)
        self.logger.hierarchy = self.hierarchy

        n = config.cores.n_cores
        self.core_time_ns: List[float] = [0.0] * n
        self.current_tx: List[Optional[TransactionInfo]] = [None] * n
        self.contexts = [TxContext(self, core) for core in range(n)]
        self._ns_per_cycle = config.cores.ns_per_cycle
        # Per-operation constants: each load and store starts with the
        # base op cost, and a word is persistent from the NVMM base up
        # (MemoryController.is_persistent).
        self._base_op_ns = config.cores.base_op_cycles * self._ns_per_cycle
        self._nvmm_base = config.nvmm_base
        self._fwb_interval_ns = (
            config.logging.fwb_interval_cycles * self._ns_per_cycle
        )
        self._next_fwb_ns = self._fwb_interval_ns
        self._scans_done = 0
        self._commit_epoch: Dict[int, int] = {}
        self.completed_transactions = 0
        self._active_threads = n
        # Non-temporal store staging (section III-F): per-transaction
        # word values held in DRAM until commit, then written to NVMM.
        self._nt_staging: Dict[tuple, Dict[int, int]] = {}
        # Transaction-table truncation state (section III-F, option 2):
        # which cache lines still hold each transaction's updates.
        self._tx_table = config.logging.truncation == "tx-table"
        self._pending_lines: Dict[int, set] = {}
        self._line_txs: Dict[int, set] = {}
        if self._tx_table:
            self.logger.data_persisted_hook = self._on_line_persisted
        # Optional checker tap: object with on_tx_store(tid, txid, addr,
        # old, new), called before each persistent transactional store is
        # logged.  The online checkers (repro.analysis.walcheck.WalChecker,
        # the fault sweep's repro.faultinject.oracle.WriteSetTracker) match
        # each store against log appends and crash points while the run
        # is in flight, which an after-the-fact recording cannot do.
        self.trace = None
        # Optional replay-recording tap: object with on_setup_store /
        # on_tx_dispatch / on_tx_store plus the TxContext op hooks
        # (see repro.replay.recorder.TraceRecorder).
        self.recorder = None
        # Optional fault-injection plan observing named crash points
        # (see repro.faultinject.plan); installed on every layer at once.
        self.crash_plan = None
        # Structured event tracing (see repro.trace): a TraceBus every
        # layer publishes typed events to, or None — the emission sites
        # are all guarded so a traceless run pays only the None test.
        # One bus on every publishing layer keeps the exported stream
        # in one global order.
        self.tracer = None
        if trace_config is not None and trace_config.enabled:
            bus = trace_config.make_bus()
            self.tracer = bus
            self.logger.tracer = bus
            self.controller.nvm.set_tracer(bus)
            for region in self.log_region.regions:
                region.tracer = bus

    def install_crash_plan(self, plan) -> None:
        """Thread a fault-injection plan through every persistence layer.

        The same plan object lands on the system, the logger, each log
        region and the NVM module, so its event indices form one global
        order across all persist boundaries.  Pass None to uninstall.
        """
        self.crash_plan = plan
        self.logger.crash_plan = plan
        self.controller.nvm.crash_plan = plan
        for region in self.log_region.regions:
            region.crash_plan = plan

    # ------------------------------------------------------------------
    # Core-visible memory operations
    # ------------------------------------------------------------------

    def advance(self, core: int, cycles: float) -> None:
        self.core_time_ns[core] += cycles * self._ns_per_cycle

    def load_word(self, core: int, addr: int) -> int:
        tx = self.current_tx[core]
        if tx is not None and self._nt_staging:
            staged = self._nt_staging.get((tx.tid, tx.txid))
            if staged is not None and addr in staged:
                # Read-your-own non-temporal write (pre-commit).
                self.advance(core, self.config.cores.base_op_cycles)
                return staged[addr]
        now = self.logger.tick(self.core_time_ns[core] + self._base_op_ns)
        line, now = self.hierarchy.access(core, addr, now, is_store=False)
        index = (addr - line.base_addr) // WORD_BYTES
        self.core_time_ns[core] = now
        self.stats.add("loads")
        return line.word(index)

    def store_word(self, core: int, addr: int, value: int) -> None:
        now = self.logger.tick(self.core_time_ns[core] + self._base_op_ns)
        line, now = self.hierarchy.access(core, addr, now, is_store=True)
        index = (addr - line.base_addr) // WORD_BYTES
        old = line.word(index)
        tx = self.current_tx[core]
        if tx is not None and addr >= self._nvmm_base:
            if self.crash_plan is not None:
                self.crash_plan.fire("tx-store", txid=tx.txid, addr=addr)
            if self.trace is not None:
                self.trace.on_tx_store(tx.tid, tx.txid, addr, old, value)
            if self.recorder is not None:
                self.recorder.on_tx_store(addr, old, value)
            tx.n_stores += 1
            now = self.logger.on_store(tx, line, index, old, value, now)
            if self._tx_table:
                self._pending_lines.setdefault(tx.txid, set()).add(line.base_addr)
                self._line_txs.setdefault(line.base_addr, set()).add(tx.txid)
        line.set_word(index, value)
        self.core_time_ns[core] = now
        self.stats.add("stores")

    def store_word_nt(self, core: int, addr: int, value: int) -> None:
        """Non-temporal (cache-bypassing) store — section III-F.

        Inside a transaction the value is staged in DRAM and redo-only
        logged; it reaches NVMM after commit.  Outside a transaction it
        writes through to memory directly.
        """
        now = self.logger.tick(self.core_time_ns[core] + self._base_op_ns)
        tx = self.current_tx[core]
        self.stats.add("nt_stores")
        if tx is not None and self.controller.is_persistent(addr):
            if self.crash_plan is not None:
                self.crash_plan.fire("tx-nt-store", txid=tx.txid, addr=addr)
            # Keep any cached copy coherent before bypassing the caches.
            now = self.hierarchy.flush_line(addr, now)
            if self.trace is not None or self.recorder is not None:
                old = self.controller.nvm.array.read_logical(addr)
                if self.trace is not None:
                    self.trace.on_tx_store(tx.tid, tx.txid, addr, old, value)
                if self.recorder is not None:
                    self.recorder.on_tx_store(addr, old, value)
            tx.n_stores += 1
            now = self.logger.on_nt_store(tx, addr, value, now)
            self._nt_staging.setdefault((tx.tid, tx.txid), {})[addr] = value
            now += DRAM_WRITE_NS  # staging write
        else:
            now = self.hierarchy.flush_line(addr, now)
            self._write_word_through(addr, value, now)
        self.core_time_ns[core] = now

    def _write_word_through(self, addr: int, value: int, now_ns: float) -> None:
        """Read-modify-write one word directly to memory."""
        base = addr - (addr % self.config.caches.line_bytes)
        if self.controller.is_persistent(addr):
            words = list(self.controller.nvm.array.read_line(base))
            words[(addr - base) // WORD_BYTES] = value
            self.controller.nvm.write_data_line(base, words, now_ns)
        else:
            self.controller.dram.write_word(addr, value)

    def _flush_nt_staging(self, tx, now_ns: float) -> float:
        staged = self._nt_staging.pop((tx.tid, tx.txid), None)
        if not staged:
            return now_ns
        # Group by line so each line costs one NVMM write.
        lines: Dict[int, Dict[int, int]] = {}
        line_bytes = self.config.caches.line_bytes
        for addr, value in staged.items():
            base = addr - (addr % line_bytes)
            lines.setdefault(base, {})[addr] = value
        array = self.controller.nvm.array
        for base, words_in_line in sorted(lines.items()):
            words = list(array.read_line(base))
            for addr, value in words_in_line.items():
                words[(addr - base) // WORD_BYTES] = value
            now_ns += self.controller.nvm.write_data_line(base, words, now_ns).stall_ns
        return now_ns

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin_tx(self, core: int) -> TransactionInfo:
        if self.current_tx[core] is not None:
            # Nested transactions flatten to the outermost (section III-A).
            self.stats.add("nested_tx_flattened")
            return self.current_tx[core]
        tx = self.logger.begin_tx(core, self.core_time_ns[core])
        self.current_tx[core] = tx
        if self.tracer is not None:
            self.tracer.emit("tx-begin", "tx", tx.begin_ns, core=core, txid=tx.txid)
        return tx

    def end_tx(self, core: int) -> None:
        tx = self.current_tx[core]
        if tx is None:
            raise RuntimeError("Tx_End without Tx_Begin on core %d" % core)
        if self.crash_plan is not None:
            self.crash_plan.fire("tx-commit", txid=tx.txid)
        now = self.logger.commit_tx(tx, self.core_time_ns[core])
        now = self._flush_nt_staging(tx, now)
        if self.tracer is not None:
            self.tracer.emit(
                "tx-commit",
                "tx",
                tx.begin_ns,
                core=core,
                txid=tx.txid,
                dur_ns=max(now - tx.begin_ns, 0.0),
                n_stores=tx.n_stores,
            )
        self.core_time_ns[core] = now
        self.current_tx[core] = None
        self._commit_epoch[tx.txid] = self._scans_done
        self.completed_transactions += 1
        if self._tx_table:
            # The table frees eligible entries as soon as their data are
            # persistent; checking at each commit keeps the prefix tight.
            self._truncate_log(now)

    def run_transaction(self, core: int, body: Callable[[TxContext], None]) -> None:
        """Execute one durable transaction on ``core``."""
        tx = self.begin_tx(core)
        try:
            body(self.contexts[core])
            self.end_tx(core)
        except CrashInjected:
            # The machine "lost power": volatile state is gone, the
            # persistence domain stays as is.  Tests call recover() next.
            if self.tracer is not None:
                self.tracer.emit(
                    "tx-crash", "tx", self.core_time_ns[core],
                    core=core, txid=tx.txid,
                )
            self.current_tx[core] = None
            raise
        self._maybe_force_write_back()

    def dispatch_transaction(
        self, core: int, body: Callable[[TxContext], None],
        arrival_ns: Optional[float] = None,
    ):
        """Dispatch one transaction on ``core``; the run loop's seam.

        The closed-loop run loop calls this with no arrival time: the
        transaction starts wherever the core's clock stands.  The
        open-loop traffic engine (:mod:`repro.traffic`) passes the
        transaction's ``arrival_ns``: an idle core first advances to the
        arrival (the core sat idle until work arrived), while a busy core
        starts it late — the gap between arrival and start is the
        queueing delay the paper's closed-loop harness can never observe.

        Returns ``(start_ns, finish_ns)`` on the core's clock.
        """
        if arrival_ns is not None and self.core_time_ns[core] < arrival_ns:
            self.core_time_ns[core] = arrival_ns
        start_ns = self.core_time_ns[core]
        if self.recorder is not None:
            self.recorder.on_tx_dispatch(core)
        self.run_transaction(core, body)
        return start_ns, self.core_time_ns[core]

    # ------------------------------------------------------------------
    # Setup-phase (untimed, unlogged) access for workload population
    # ------------------------------------------------------------------

    def setup_store(self, addr: int, value: int) -> None:
        """Install a word during workload setup, bypassing measurement."""
        if self.recorder is not None:
            self.recorder.on_setup_store(addr, value)
        if self.controller.is_persistent(addr):
            self.controller.nvm.array.write_logical(addr, value)
        else:
            self.controller.dram.write_word(addr, value)

    def setup_load(self, addr: int) -> int:
        if self.controller.is_persistent(addr):
            return self.controller.nvm.array.read_logical(addr)
        return self.controller.dram.read_word(addr)

    def reset_measurement(self) -> None:
        """Zero all counters, clocks and run-loop state.

        :meth:`start_run` calls it once the set-up is in place, so the
        run measures nothing the set-up did and inherits none of its FWB
        schedule, truncation epochs, staged non-temporal stores or
        transaction-table bookkeeping.
        """
        self.stats.reset()
        self.controller.nvm.timing.reset()
        self.core_time_ns = [0.0] * self.config.cores.n_cores
        self.completed_transactions = 0
        self._next_fwb_ns = self._fwb_interval_ns
        self._scans_done = 0
        self._commit_epoch.clear()
        self._nt_staging.clear()
        self._pending_lines.clear()
        self._line_txs.clear()

    # ------------------------------------------------------------------
    # Force-write-back and log truncation (section III-F)
    # ------------------------------------------------------------------

    def _maybe_force_write_back(self) -> None:
        now = min(self.core_time_ns[: self._active_threads])
        while now >= self._next_fwb_ns:
            self._run_fwb_scan(self._next_fwb_ns)
            self._next_fwb_ns += self._fwb_interval_ns

    def _run_fwb_scan(self, now_ns: float) -> float:
        if self.crash_plan is not None:
            self.crash_plan.fire("fwb-scan")
        done = self.hierarchy.force_write_back_scan(now_ns)
        done = self.logger.on_fwb_scan(done)
        self._scans_done += 1
        if self.tracer is not None:
            self.tracer.emit(
                "fwb-scan", "fwb", now_ns,
                dur_ns=max(done - now_ns, 0.0), index=self._scans_done,
            )
        self._truncate_log(done)
        return done

    def _on_line_persisted(self, line_addr: int) -> None:
        """Transaction-table bookkeeping: a line's data reached NVMM."""
        for txid in self._line_txs.pop(line_addr, ()):
            pending = self._pending_lines.get(txid)
            if pending is not None:
                pending.discard(line_addr)
                if not pending:
                    del self._pending_lines[txid]

    def _truncate_log(self, now_ns: float) -> None:
        if self._tx_table:
            committed = self._commit_epoch

            def can_free(entry: LiveEntry) -> bool:
                return (
                    entry.txid in committed
                    and not self._pending_lines.get(entry.txid)
                )

        else:
            horizon = self._scans_done - 2

            def can_free(entry: LiveEntry) -> bool:
                epoch = self._commit_epoch.get(entry.txid)
                return epoch is not None and epoch <= horizon

        self.log_region.truncate(can_free, now_ns)

    def _handle_log_overflow(self, now_ns: float) -> float:
        """Emergency path: scan twice so every dirty line persists, then
        truncate everything committed."""
        self.stats.add("log_overflow_scans")
        now_ns = self._run_fwb_scan(now_ns)
        now_ns = self._run_fwb_scan(now_ns)
        return now_ns

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def start_run(self, n_threads: int, setup: Callable[[], None]) -> None:
        """Open a run on ``n_threads`` cores.

        Checks the thread count, refuses a machine that already ran (a
        System runs once; build each run's machine with ``make_system``),
        calls ``setup()`` (the caller's untimed population) and zeroes
        measurement.  Every driver opens its run here: :meth:`run`, trace
        replay, the traffic engine and the fault sweep.
        """
        if n_threads < 1:
            # 0 used to silently mean "all cores" via `n_threads or ...`,
            # turning a caller's arithmetic bug into an 8-thread run.
            raise ValueError("n_threads must be >= 1, got %r" % (n_threads,))
        if n_threads > self.config.cores.n_cores:
            raise ValueError("more threads than cores")
        if self._ran:
            raise RuntimeError(
                "this System already ran; build a fresh one with make_system"
            )
        self._ran = True
        setup()
        self.reset_measurement()
        self._active_threads = n_threads

    def measured(self, dispatched: int) -> RunResult:
        """The run's result so far: ``dispatched`` transactions, timed to
        the slowest active core."""
        return RunResult(
            transactions=dispatched,
            elapsed_ns=max(self.core_time_ns[: self._active_threads]),
            stats=self.stats.as_dict(),
        )

    def drain(self, now_ns: float) -> None:
        """Close a run: persist every buffered entry and dirty line.

        Then drop the codec memos' entries, which a finished machine no
        longer needs; their hit, miss and eviction counters stay.
        """
        end = self.logger.drain(now_ns)
        end = self.hierarchy.drain_all(end)
        if self._tx_table:
            # Every line is persistent now; the table can free everything
            # committed.
            self._truncate_log(end)
        self.controller.nvm.clear_memos()

    def run(self, workload, n_transactions: int, n_threads: Optional[int] = None) -> RunResult:
        """Set up ``workload`` and execute ``n_transactions`` across threads."""
        if n_threads is None:
            n_threads = self.config.cores.n_cores
        self.start_run(n_threads, lambda: workload.setup(self, n_threads))
        dispatched = 0
        while dispatched < n_transactions:
            core = min(range(n_threads), key=self.core_time_ns.__getitem__)
            body = workload.transaction(core)
            self.dispatch_transaction(core, body)
            dispatched += 1
        # Measurement ends here: the paper measures N transactions of
        # steady-state execution; the drain below (flushing every dirty
        # line and buffered entry) exists for post-run invariants and
        # recovery tests, and would otherwise swamp short runs with an
        # end-of-run write burst.
        result = self.measured(dispatched)
        self.drain(result.elapsed_ns)
        return result

    # ------------------------------------------------------------------
    # Crash / recovery support
    # ------------------------------------------------------------------

    def persistent_word(self, addr: int) -> int:
        """The word's value in the persistence domain (ignores caches)."""
        return self.controller.nvm.array.read_logical(addr)

    def coherent_word(self, addr: int) -> int:
        """The word's newest architectural value (caches included)."""
        return self.hierarchy.coherent_word(addr)

    def recover(self, verify_decode: bool = True):
        """Run crash recovery against the current persistence domain."""
        from repro.logging_hw.recovery import recover

        state = recover(
            self.controller,
            self.log_region.region_bases(),
            self.log_region.region_bytes,
            delay_persistence=self.config.logging.delay_persistence,
            verify_decode=verify_decode,
        )
        # Designs with durable state outside the central log (InCLL
        # embedded slots, CoW page tables) run their own pass here; it
        # reads only durable state, so the crashed logger instance is a
        # safe place to hang the hook.
        self.logger.recover_design_state(state)
        if self.tracer is not None:
            # Recovery runs on a fresh power-on timeline; ts 0 by design.
            self.tracer.emit(
                "recovery",
                "recovery",
                0.0,
                committed=len(state.committed_txids),
                persisted=len(state.persisted_txids),
                redone_words=state.redone_words,
                undone_words=state.undone_words,
                decode_verified_words=state.decode_verified_words,
            )
        return state
