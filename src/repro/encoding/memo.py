"""Hot-path codec memoization: a bounded LRU cache of codec results.

Every simulated NVM write funnels through a word codec, and workload word
values repeat heavily (SPS swaps the same array cells back and forth,
B-tree keys cluster, allocations zero-fill), so the same codec decisions
are recomputed over and over.  :class:`LruMemo` makes that cheap: a small
bounded LRU mapping immutable keys (words, dirty masks, contexts) to
immutable :class:`~repro.encoding.base.EncodedWord` results, with
hit/miss counters for diagnostics.

Every memoizing codec (FPC, CRADE, BDI, SLDE) owns one
``LruMemo(DEFAULT_MEMO_ENTRIES)``, always on.
Memoization is *result-inert* by construction: a cache hit returns the
same frozen ``EncodedWord`` the compute path would have produced (pinned
by Hypothesis differentials against the same codec with its memos
cleared before every call), and SLDE replays its trace decision hook on
hits so observability is identical too.  Nothing about the memo enters a
config, so grid cache keys and bench record digests never see it.
"""

from collections import OrderedDict
from typing import Any, Dict, Hashable

__all__ = ["LruMemo", "DEFAULT_MEMO_ENTRIES"]

#: Bound of each codec's LRU.  Word values in the paper's workloads
#: cluster far below this, so it behaves like an unbounded cache while
#: still capping worst-case memory.
DEFAULT_MEMO_ENTRIES = 1 << 13


class LruMemo:
    """A bounded LRU cache for codec results.

    Keys must be hashable and fully describe the computation's inputs;
    values must be immutable (``EncodedWord`` is a frozen dataclass, and
    the tuples stored by SLDE hold only frozen members).  ``get`` refreshes
    recency; ``put`` evicts the least-recently-used entry past capacity.
    None is not a legal value (``get`` uses it as the miss sentinel).
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, maxsize: int = DEFAULT_MEMO_ENTRIES) -> None:
        if maxsize <= 0:
            raise ValueError("memo size must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Any:
        """Return the cached value for ``key`` or None on a miss."""
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if value is None:
            raise ValueError("None cannot be memoized (miss sentinel)")
        data = self._data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction/size counters, canonically (key-)ordered.

        Diagnostics only — never part of run results (memoization is
        result-inert), but surfaced through ``metrics_snapshot``'s
        ``memo`` key so benchmark records capture cache effectiveness.
        ``entries`` is the memo's current size: :meth:`clear` (which
        ``System.drain`` calls at the end of every run) empties it and
        leaves the other counters as they were, so a finished run reads
        ``entries`` 0.
        """
        return {
            "entries": len(self._data),
            "evictions": self.evictions,
            "hits": self.hits,
            "maxsize": self.maxsize,
            "misses": self.misses,
        }
