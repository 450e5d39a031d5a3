"""A set-associative, write-back, LRU cache."""

from collections import OrderedDict
from typing import Iterator, List, Optional

from repro.cache.cacheline import CacheLine
from repro.common.config import CacheLevelConfig
from repro.common.stats import StatGroup


class SetAssocCache:
    """Set-associative cache of :class:`CacheLine` objects.

    Each set is an OrderedDict from line base address to line, ordered
    least- to most-recently used; Python's dict move-to-end gives O(1) LRU.
    """

    def __init__(self, name: str, config: CacheLevelConfig, stats: Optional[StatGroup] = None) -> None:
        self.name = name
        self.config = config
        self.stats = stats if stats is not None else StatGroup(name)
        # Bound once: every access computes a line base and a set index
        # (``CacheLevelConfig.n_sets`` divides on each read).
        self.line_bytes = config.line_bytes
        self.n_sets = config.n_sets
        self._sets: List["OrderedDict[int, CacheLine]"] = [
            OrderedDict() for _ in range(self.n_sets)
        ]

    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Find the line containing ``addr``; refresh LRU on hit."""
        line_bytes = self.line_bytes
        base = addr - addr % line_bytes
        bucket = self._sets[base // line_bytes % self.n_sets]
        line = bucket.get(base)
        if line is not None and touch:
            bucket.move_to_end(base)
        return line

    def insert(self, line: CacheLine) -> Optional[CacheLine]:
        """Insert a line; returns the evicted victim, if any."""
        base = line.base_addr
        if base % self.line_bytes:
            raise ValueError("line base address must be line-aligned")
        bucket = self._sets[base // self.line_bytes % self.n_sets]
        victim = None
        if base not in bucket and len(bucket) >= self.config.assoc:
            _victim_base, victim = bucket.popitem(last=False)
            self.stats.add("evictions")
        bucket[base] = line
        bucket.move_to_end(base)
        return victim

    def remove(self, addr: int) -> Optional[CacheLine]:
        """Remove (invalidate) the line containing ``addr``."""
        line_bytes = self.line_bytes
        base = addr - addr % line_bytes
        return self._sets[base // line_bytes % self.n_sets].pop(base, None)

    def iter_lines(self) -> Iterator[CacheLine]:
        for bucket in self._sets:
            yield from bucket.values()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._sets)
