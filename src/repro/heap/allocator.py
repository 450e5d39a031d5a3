"""A segregated-freelist bump allocator over the NVMM range.

Deliberately simple and deterministic: allocation metadata lives on the
host (the paper's allocator metadata persistence is orthogonal to its
logging study), but the *placement* behaviour — size-class reuse, bump
growth, cache-line alignment — matters for locality and is modelled.
"""

from typing import Dict, List

from repro.common.bitops import align_up
from repro.common.errors import AllocationError

_LINE = 64


class PersistentHeap:
    """pmalloc/pfree over ``[base, base + size)``."""

    def __init__(self, base: int, size: int) -> None:
        if base % _LINE:
            raise ValueError("heap base must be cache-line aligned")
        self.base = base
        self.size = size
        self._bump = base
        self._end = base + size
        self._free_lists: Dict[int, List[int]] = {}
        self._sizes: Dict[int, int] = {}

    @staticmethod
    def _size_class(nbytes: int) -> int:
        """Round to a cache-line multiple; nodes never straddle lines."""
        return align_up(max(nbytes, 8), _LINE)

    def pmalloc(self, nbytes: int) -> int:
        """Allocate ``nbytes``; returns a 64-byte-aligned address."""
        cls = self._size_class(nbytes)
        free = self._free_lists.get(cls)
        if free:
            addr = free.pop()
        else:
            addr = self._bump
            if addr + cls > self._end:
                raise AllocationError(
                    "heap exhausted: %d bytes requested" % nbytes
                )
            self._bump = addr + cls
        self._sizes[addr] = cls
        return addr

    def pfree(self, addr: int) -> None:
        cls = self._sizes.pop(addr, None)
        if cls is None:
            raise AllocationError("pfree of unallocated address %#x" % addr)
        self._free_lists.setdefault(cls, []).append(addr)

    @property
    def allocated_bytes(self) -> int:
        return sum(self._sizes.values())
