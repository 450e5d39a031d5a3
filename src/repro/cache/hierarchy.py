"""Three-level cache hierarchy with eviction callbacks for the loggers.

Private L1 and L2 per core and a shared L3, managed (mostly) exclusively:
a line lives in L1 while hot, slides to L2 then L3 on eviction, and is
written back to memory when it leaves L3 dirty.  A minimal directory moves
a line between cores on conflicting accesses (write-invalidate), which is
all the coherence the paper's per-thread-dominated workloads need.

The hardware loggers observe the hierarchy through :class:`CacheListener`:

- ``on_l1_evict`` fires before a line (with its per-word log state) leaves
  an L1 — MorLog uses it to create redo entries for ULog words
  (section III-B) and to flush pending undo+redo entries (ordering).
- ``on_llc_write_back`` fires when in-place data reach NVMM — MorLog uses
  it to discard now-unnecessary redo buffer entries.
"""

from typing import Dict, List, Optional, Tuple

from repro.cache.cache import SetAssocCache
from repro.cache.cacheline import CacheLine
from repro.common.bitops import WORD_BYTES
from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.memory.controller import MemoryController


class CacheListener:
    """Callbacks the hardware loggers register with the hierarchy."""

    def on_l1_evict(self, core: int, line: CacheLine, now_ns: float) -> float:
        """Line is about to leave an L1 (eviction or invalidation).

        Returns the time after any log activity this triggers.
        """
        return now_ns

    def before_llc_write_back(self, line_addr: int, now_ns: float) -> float:
        """A line is about to be written to memory.

        This is where write-ahead ordering is enforced: any still-buffered
        undo data covering the line must be persisted first.  Returns the
        time after that log activity.
        """
        return now_ns

    def on_data_persisted(self, line_addr: int, now_ns: float) -> None:
        """A line's in-place data reached the persistence domain."""

    def divert_write_back(self, line: "CacheLine", now_ns: float) -> bool:
        """Claim a write-back instead of letting it reach NVMM.

        Redo-only logging designs must not update in-place data while a
        transaction is in flight; returning True here means the listener
        staged the line elsewhere (e.g. a DRAM cache, as ReDU does) and
        the hierarchy skips the memory write.
        """
        return False


class CacheHierarchy:
    """L1/L2 per core, shared L3, eviction plumbing and FWB scans."""

    def __init__(
        self,
        config: SystemConfig,
        controller: MemoryController,
        stats: Optional[StatGroup] = None,
        listener: Optional[CacheListener] = None,
    ) -> None:
        self.config = config
        self.controller = controller
        self.stats = stats if stats is not None else StatGroup("caches")
        self.listener = listener if listener is not None else CacheListener()
        n = config.cores.n_cores
        self.l1s = [SetAssocCache("l1.%d" % c, config.caches.l1, self.stats) for c in range(n)]
        self.l2s = [SetAssocCache("l2.%d" % c, config.caches.l2, self.stats) for c in range(n)]
        self.l3 = SetAssocCache("l3", config.caches.l3, self.stats)
        # line base address -> core whose private caches hold it
        self._owner: Dict[int, int] = {}
        self._ns_per_cycle = config.cores.ns_per_cycle
        # L1 hit latencies (stores retire through the store buffer).
        self._load_hit_ns = config.caches.l1.latency_cycles * self._ns_per_cycle
        self._store_hit_ns = config.cores.store_hit_cycles * self._ns_per_cycle

    # ------------------------------------------------------------------
    # Eviction plumbing
    # ------------------------------------------------------------------

    def _write_back(self, line: CacheLine, now_ns: float) -> float:
        """Write a dirty line to memory; returns producer-visible time."""
        if self.listener.divert_write_back(line, now_ns):
            self.stats.add("diverted_write_backs")
            return now_ns
        now_ns = self.listener.before_llc_write_back(line.base_addr, now_ns)
        done = self.controller.write_line(line.base_addr, line.words, now_ns)
        self.listener.on_data_persisted(line.base_addr, now_ns)
        self.stats.add("memory_write_backs")
        return done

    def _insert_l3(self, line: CacheLine, now_ns: float) -> float:
        victim = self.l3.insert(line)
        if victim is not None and victim.dirty:
            return self._write_back(victim, now_ns)
        return now_ns

    def _insert_l2(self, core: int, line: CacheLine, now_ns: float) -> float:
        victim = self.l2s[core].insert(line)
        if victim is not None:
            # Exclusive hierarchy: every L2 victim slides into L3.
            self._owner.pop(victim.base_addr, None)
            now_ns = self._insert_l3(victim, now_ns)
        return now_ns

    def _insert_l1(self, core: int, line: CacheLine, now_ns: float) -> float:
        victim = self.l1s[core].insert(line)
        if victim is not None:
            now_ns = self.listener.on_l1_evict(core, victim, now_ns)
            victim.clear_log_state()
            now_ns = self._insert_l2(core, victim, now_ns)
        self._owner[line.base_addr] = core
        return now_ns

    def _remove_from_private(self, core: int, base: int) -> Optional[CacheLine]:
        line = self.l1s[core].remove(base)
        if line is None:
            line = self.l2s[core].remove(base)
        if line is not None:
            self._owner.pop(base, None)
        return line

    def _steal_from_owner(self, requester: int, base: int, now_ns: float) -> Tuple[Optional[CacheLine], float]:
        """Pull the line out of another core's private caches."""
        owner = self._owner.get(base)
        if owner is None or owner == requester:
            return None, now_ns
        line = self.l1s[owner].lookup(base, touch=False)
        if line is not None:
            now_ns = self.listener.on_l1_evict(owner, line, now_ns)
            line.clear_log_state()
        line = self._remove_from_private(owner, base)
        self.stats.add("coherence_transfers")
        return line, now_ns

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def access(self, core: int, addr: int, now_ns: float, is_store: bool) -> Tuple[CacheLine, float]:
        """Bring the line holding ``addr`` into ``core``'s L1.

        Returns the resident line and the core-visible completion time.
        The caller mutates the line for stores; the per-word log state is
        the loggers' business.
        """
        # The L1 probe is SetAssocCache.lookup inlined: most accesses hit.
        l1 = self.l1s[core]
        line_bytes = l1.line_bytes
        base = addr - addr % line_bytes
        bucket = l1._sets[base // line_bytes % l1.n_sets]
        line = bucket.get(base)
        if line is not None:
            bucket.move_to_end(base)
            self.stats.add("l1_hits")
            return line, now_ns + (self._store_hit_ns if is_store else self._load_hit_ns)
        cfg = self.config.caches
        lat = self._load_hit_ns

        lat += cfg.l2.latency_cycles * self._ns_per_cycle
        line = self.l2s[core].remove(base)
        if line is not None:
            self.stats.add("l2_hits")
            done = self._insert_l1(core, line, now_ns + lat)
            return line, max(now_ns + lat, done)

        # Another core may hold it; coherence transfer costs an L3 round.
        lat += cfg.l3.latency_cycles * self._ns_per_cycle
        line, now_after = self._steal_from_owner(core, base, now_ns)
        if line is not None:
            done = self._insert_l1(core, line, max(now_ns + lat, now_after))
            return line, max(now_ns + lat, done)

        line = self.l3.remove(base)
        if line is not None:
            self.stats.add("l3_hits")
            done = self._insert_l1(core, line, now_ns + lat)
            return line, max(now_ns + lat, done)

        # Memory fill.
        self.stats.add("misses")
        words, finish = self.controller.read_line(base, now_ns + lat)
        line = CacheLine(base, list(words))
        done = self._insert_l1(core, line, finish)
        return line, max(finish, done)

    # ------------------------------------------------------------------
    # Whole-cache operations
    # ------------------------------------------------------------------

    def coherent_word(self, addr: int) -> int:
        """Read the newest value of a word, wherever it lives (for tests)."""
        base = addr - (addr % self.config.caches.line_bytes)
        index = (addr % self.config.caches.line_bytes) // WORD_BYTES
        owner = self._owner.get(base)
        if owner is not None:
            for cache in (self.l1s[owner], self.l2s[owner]):
                line = cache.lookup(base, touch=False)
                if line is not None:
                    return line.word(index)
        line = self.l3.lookup(base, touch=False)
        if line is not None:
            return line.word(index)
        if self.controller.is_persistent(addr):
            return self.controller.nvm.array.read_logical(addr)
        return self.controller.dram.read_word(addr)

    def write_back_line(self, addr: int, now_ns: float) -> float:
        """Write one line back to memory if dirty, keeping it resident
        (``clwb`` semantics — what undo-only commit forces per line)."""
        base = addr - (addr % self.config.caches.line_bytes)
        owner = self._owner.get(base)
        caches = []
        if owner is not None:
            caches = [self.l1s[owner], self.l2s[owner]]
        caches.append(self.l3)
        for cache in caches:
            line = cache.lookup(base, touch=False)
            if line is not None:
                if line.dirty:
                    now_ns = max(now_ns, self._write_back(line, now_ns))
                    line.dirty = False
                return now_ns
        return now_ns

    def flush_line(self, addr: int, now_ns: float) -> float:
        """Evict one line from every level, writing it back if dirty.

        Non-temporal stores use this to keep a line coherent before they
        bypass the caches (section III-F).
        """
        base = addr - (addr % self.config.caches.line_bytes)
        owner = self._owner.get(base)
        if owner is not None:
            line = self.l1s[owner].lookup(base, touch=False)
            if line is not None:
                now_ns = self.listener.on_l1_evict(owner, line, now_ns)
                line.clear_log_state()
            line = self._remove_from_private(owner, base)
            if line is not None and line.dirty:
                now_ns = max(now_ns, self._write_back(line, now_ns))
        line = self.l3.remove(base)
        if line is not None and line.dirty:
            now_ns = max(now_ns, self._write_back(line, now_ns))
        return now_ns

    def force_write_back_scan(self, now_ns: float) -> float:
        """One force-write-back pass (section III-F, first option).

        Dirty lines seen for the first time get their flag bit set; lines
        whose flag is already set are written back (without invalidation,
        like ``clwb``) and cleaned.
        """
        caches: List[SetAssocCache] = list(self.l1s) + list(self.l2s) + [self.l3]
        for cache in caches:
            for line in cache.iter_lines():
                if not line.dirty:
                    continue
                if not line.fwb_flag:
                    line.fwb_flag = True
                    continue
                now_ns = max(now_ns, self._write_back(line, now_ns))
                line.dirty = False
                line.fwb_flag = False
        self.stats.add("fwb_scans")
        return now_ns

    def drain_all(self, now_ns: float) -> float:
        """Write back every dirty line (end-of-run accounting, tests)."""
        for core in range(len(self.l1s)):
            for line in list(self.l1s[core].iter_lines()):
                now_ns = self.listener.on_l1_evict(core, line, now_ns)
                line.clear_log_state()
                if line.dirty:
                    now_ns = max(now_ns, self._write_back(line, now_ns))
                    line.dirty = False
        for cache in list(self.l2s) + [self.l3]:
            for line in cache.iter_lines():
                if line.dirty:
                    now_ns = max(now_ns, self._write_back(line, now_ns))
                    line.dirty = False
        return now_ns
