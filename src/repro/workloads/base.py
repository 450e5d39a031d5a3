"""Workload infrastructure.

A workload is set up once (untimed, through :class:`SetupContext`) and
then produces one transaction body per call.  Threads operate on disjoint
shards of the structure — the paper relies on software isolation (fine-
grained locking) between conflicting transactions (section III-A); sharding
gives the same non-conflicting behaviour deterministically.

Dataset sizes: the paper runs every micro-benchmark with a *small* (64 B)
and *large* (4 KB) dataset item (section VI-A); the item size sets the
node/entry layout of each structure.
"""

import enum
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.common.bitops import WORD_BYTES
from repro.heap.allocator import PersistentHeap


class DatasetSize(enum.Enum):
    SMALL = 64        # bytes per item
    LARGE = 4096

    @property
    def item_words(self) -> int:
        return self.value // WORD_BYTES


@dataclass(frozen=True)
class WorkloadParams:
    """Knobs shared by all workloads."""

    dataset: DatasetSize = DatasetSize.SMALL
    # Items preloaded per thread shard during setup.
    initial_items: int = 512
    # Key space per shard (micro-benchmarks pick uniform random keys in
    # it, like the paper's "data structures with random keys").
    key_space: int = 4096
    seed: int = 1234
    # Fraction of value words that are zero / small / random — shapes the
    # clean-byte and compressibility behaviour like real application data.
    zero_fraction: float = 0.45
    small_fraction: float = 0.35

    def scaled_for_large(self) -> "WorkloadParams":
        """Shrink item counts when items are 4 KB so setup stays sane."""
        if self.dataset is DatasetSize.SMALL:
            return self
        return replace(
            self,
            initial_items=max(self.initial_items // 8, 16),
            key_space=max(self.key_space // 8, 64),
        )


class SetupContext:
    """Same load/store interface as TxContext, but untimed and unlogged.

    Persistent words go straight to the system's NVM array (as
    :meth:`System.setup_load` and ``setup_store`` would send them).  DRAM
    words, and every store while a recorder is attached (it must see
    each one, in order), take the ``System.setup_*`` path.
    """

    def __init__(self, system) -> None:
        self._system = system
        array = system.controller.nvm.array
        self._nvmm_base = system.config.nvmm_base
        self._read = array.read_logical
        self._write = array.write_logical

    def load(self, addr: int) -> int:
        if addr >= self._nvmm_base:
            return self._read(addr)
        return self._system.setup_load(addr)

    def store(self, addr: int, value: int) -> None:
        if addr >= self._nvmm_base and self._system.recorder is None:
            self._write(addr, value)
        else:
            self._system.setup_store(addr, value)

    def load_words(self, addr: int, count: int) -> List[int]:
        return [self.load(addr + i * WORD_BYTES) for i in range(count)]

    def store_words(self, addr: int, values) -> None:
        for i, value in enumerate(values):
            self.store(addr + i * WORD_BYTES, value)

    def fill(self, addr: int, count: int, value: int = 0) -> None:
        for i in range(count):
            self.store(addr + i * WORD_BYTES, value)

    def compute(self, cycles: int) -> None:
        """No-op during setup (matches TxContext's interface)."""


class Workload:
    """Base class: one persistent structure shard per thread."""

    name = "abstract"

    def __init__(self, params: Optional[WorkloadParams] = None) -> None:
        self.params = (params or WorkloadParams()).scaled_for_large()
        self.heap: Optional[PersistentHeap] = None
        self.rngs: List[random.Random] = []
        self.n_threads = 0

    # -- subclass API ---------------------------------------------------

    def setup_shard(self, ctx: SetupContext, tid: int) -> None:
        raise NotImplementedError

    def transaction(self, tid: int) -> Callable:
        """Return the next transaction body for thread ``tid``."""
        raise NotImplementedError

    # -- plumbing ---------------------------------------------------------

    def setup(
        self,
        system,
        n_threads: int,
        heap_base: Optional[int] = None,
        heap_size: Optional[int] = None,
    ) -> None:
        """Build the persistent structure (untimed).

        ``heap_base``/``heap_size`` carve this workload's heap out of a
        sub-range of NVMM instead of the whole device — the mixture
        provider (:mod:`repro.workloads.mixture`) gives each component
        its own disjoint slice so their allocators cannot collide.
        """
        self.n_threads = n_threads
        self.rngs = [
            random.Random(self.params.seed * 1_000_003 + tid) for tid in range(n_threads)
        ]
        if heap_base is None:
            heap_base = system.config.nvmm_base
        if heap_size is None:
            heap_size = system.config.nvm.size_bytes - (
                heap_base - system.config.nvmm_base)
        self.heap = PersistentHeap(heap_base, heap_size)
        ctx = SetupContext(system)
        for tid in range(n_threads):
            self.setup_shard(ctx, tid)

    # -- value generation -------------------------------------------------

    def value_word(self, rng: random.Random) -> int:
        """One payload word with realistic entropy.

        Real application payloads are a mix of zeros, small integers and
        high-entropy data; the mix drives the clean-byte ratio (Figure 5)
        and DLDC/FPC compressibility (Table II).
        """
        roll = rng.random()
        if roll < self.params.zero_fraction:
            return 0
        if roll < self.params.zero_fraction + self.params.small_fraction:
            return rng.randrange(1 << 16)
        return rng.getrandbits(64)

    def value_words(self, rng: random.Random, count: int) -> List[int]:
        return [self.value_word(rng) for _ in range(count)]

    # -- recording ---------------------------------------------------------

    def trace_provenance(self) -> Dict[str, object]:
        """Identity stamped into a recorded trace's metadata.

        The recorder (:mod:`repro.replay.recorder`) writes this into the
        trace header, so a replayed cell can state — and the cache key
        can hash — which workload and parameters produced the stream.
        """
        return {
            "workload": self.name,
            "dataset": self.params.dataset.name,
            "initial_items": self.params.initial_items,
            "key_space": self.params.key_space,
            "seed": self.params.seed,
            "zero_fraction": self.params.zero_fraction,
            "small_fraction": self.params.small_fraction,
        }


# Registries used by the experiment harness.
MICRO_WORKLOADS = ("btree", "hash", "queue", "rbtree", "sdg", "sps")
MACRO_WORKLOADS = ("echo", "ycsb", "tpcc")
# The additional WHISPER applications the paper's motivation figures use.
MOTIVATION_EXTRAS = ("vacation", "ctree", "redis", "memcached")


def make_workload(name: str, params: Optional[WorkloadParams] = None) -> Workload:
    """Build a workload by its Table IV name."""
    from repro.workloads.btree import BTreeWorkload
    from repro.workloads.ctree import CTreeWorkload
    from repro.workloads.echo import EchoWorkload
    from repro.workloads.hashmap import HashMapWorkload
    from repro.workloads.memcached import MemcachedWorkload
    from repro.workloads.queue import QueueWorkload
    from repro.workloads.rbtree import RBTreeWorkload
    from repro.workloads.redis import RedisWorkload
    from repro.workloads.sdg import SdgWorkload
    from repro.workloads.sps import SpsWorkload
    from repro.workloads.mixture import MixtureWorkload
    from repro.workloads.tpcc import TpccWorkload
    from repro.workloads.vacation import VacationWorkload
    from repro.workloads.ycsb import YcsbWorkload

    classes: Dict[str, type] = {
        "btree": BTreeWorkload,
        "ctree": CTreeWorkload,
        "hash": HashMapWorkload,
        "memcached": MemcachedWorkload,
        "queue": QueueWorkload,
        "rbtree": RBTreeWorkload,
        "redis": RedisWorkload,
        "sdg": SdgWorkload,
        "sps": SpsWorkload,
        "echo": EchoWorkload,
        "vacation": VacationWorkload,
        "ycsb": YcsbWorkload,
        "tpcc": TpccWorkload,
        "mix": MixtureWorkload,
    }
    if name not in classes:
        raise ValueError("unknown workload %r (choose from %s)" % (
            name, sorted(classes)))
    return classes[name](params)
