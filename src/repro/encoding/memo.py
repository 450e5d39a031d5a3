"""Hot-path codec memoization: LRU result caches and lookup tables.

Every simulated NVM write funnels through a word codec, and workload word
values repeat heavily (SPS swaps the same array cells back and forth,
B-tree keys cluster, allocations zero-fill), so the same codec decisions
are recomputed over and over.  This module supplies the three ingredients
the encoding package uses to make that cheap:

- :class:`LruMemo` — a small bounded LRU mapping immutable keys (words,
  dirty masks, contexts) to immutable :class:`~repro.encoding.base.
  EncodedWord` results, with hit/miss counters for diagnostics;
- precomputed *per-byte predicate tables* for the DLDC Table-II patterns
  (2-bit / 4-bit sign-extension fits, zero low nibble), which the numpy
  kernels of :mod:`repro.encoding.vector` index (the scalar search in
  :mod:`repro.encoding.dldc` tests every dirty byte at once with lane
  arithmetic on the packed bytes), and a small-word FPC prefix table;
- :data:`DLDC_PATTERN_BITS` — the Table-II payload cost of every pattern
  for every dirty-byte count, so the pattern search can pick the winner
  by table lookup and build only the winning payload.

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

from repro.common.bitops import WORD_BYTES, fits_signed

__all__ = [
    "LruMemo",
    "BYTE_FITS_SE2",
    "BYTE_FITS_SE4",
    "BYTE_LOW_NIBBLE_ZERO",
    "DLDC_PATTERN_BITS",
    "FPC_SMALL_WORD_PREFIX",
]

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


# ---------------------------------------------------------------------------
# Per-byte predicate tables (DLDC Table-II pattern search)
# ---------------------------------------------------------------------------

#: byte value -> fits a 2-bit sign-extended encoding (Table II tag 001).
BYTE_FITS_SE2 = tuple(fits_signed(b, 2, 8) for b in range(256))

#: byte value -> fits a 4-bit sign-extended encoding (Table II tag 010).
BYTE_FITS_SE4 = tuple(fits_signed(b, 4, 8) for b in range(256))

#: byte value -> low nibble is zero (Table II tag 110, zero-padded).
BYTE_LOW_NIBBLE_ZERO = tuple(b & 0x0F == 0 for b in range(256))


def _pattern_bits_table() -> Dict[int, tuple]:
    """Payload bits of each Table-II pattern per dirty-byte count ``k``.

    ``DLDC_PATTERN_BITS[tag][k]`` is the payload size in bits when the
    pattern applies to a ``k``-byte dirty string; None marks counts the
    pattern is undefined for (the sign-extension patterns need strings
    strictly wider than their base).  Index 0 is always None — an empty
    dirty string is a silent write and never reaches the pattern search.
    """
    table: Dict[int, list] = {tag: [None] * (WORD_BYTES + 1) for tag in range(8)}
    for k in range(1, WORD_BYTES + 1):
        table[0b000][k] = 0           # all-zero
        table[0b001][k] = 2 * k       # 2-bit sign-extension per byte
        table[0b010][k] = 4 * k       # 4-bit sign-extension per byte
        if 8 * k > 8:
            table[0b011][k] = 8       # 1-byte sign-extended value
        if 8 * k > 16:
            table[0b100][k] = 16      # 2-byte sign-extended value
        if 8 * k > 32:
            table[0b101][k] = 32      # 4-byte sign-extended value
        table[0b110][k] = 4 * k       # zero-padded low nibbles
        if k > 1:
            table[0b111][k] = 8 * (k - 1)  # zero low byte
    return {tag: tuple(bits) for tag, bits in table.items()}


#: Table-II pattern payload costs, ``DLDC_PATTERN_BITS[tag][k]``.
DLDC_PATTERN_BITS = _pattern_bits_table()


# ---------------------------------------------------------------------------
# FPC prefix fast path
# ---------------------------------------------------------------------------

def _small_word_prefix(word: int) -> int:
    # Mirrors repro.encoding.fpc.fpc_match for words < 256, computed once
    # at import (fpc imports this table, so the logic is inlined here).
    if word == 0:
        return 0b000
    if fits_signed(word, 4):
        return 0b001
    if fits_signed(word, 8):
        return 0b010
    return 0b011  # 8 < word < 256 always fits 16-bit sign extension


#: word value (< 256) -> FPC prefix class.  Small words dominate log and
#: metadata traffic (counters, keys, flags), so the full pattern match is
#: skipped for them.
FPC_SMALL_WORD_PREFIX = tuple(_small_word_prefix(w) for w in range(256))
