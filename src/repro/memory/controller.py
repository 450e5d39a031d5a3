"""The memory controller: routes requests to DRAM or the NVM module.

DRAM and NVMM live on one memory bus mapped to a single physical address
space; user-critical data sit in NVMM, everything else in DRAM (section
III-A).  Log writes bypass the controller's cache-line path: the log
writers call the NVM module's ``write_log_entry`` directly (section
III-A, Figure 6).
"""

from typing import Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.memory.dram import DRAM_READ_NS, Dram
from repro.nvm.module import NvmModule


class MemoryController:
    """Address routing plus the ADR persistence boundary."""

    def __init__(self, config: SystemConfig, stats: Optional[StatGroup] = None) -> None:
        self.stats = stats if stats is not None else StatGroup("memory_controller")
        self.config = config
        self.nvm = NvmModule(
            config.nvm, config.encoding, self.stats, config.caches.line_bytes
        )
        self.dram = Dram(self.stats)
        # Optional debug tap: called with (addr, words) before every
        # in-place NVMM line write (used by the WAL-ordering checker).
        self.data_write_observer = None
        # Optional read hook: called with the address of every NVMM line
        # read; a non-None return value (a word list) services the read
        # instead of the array.  Redo-only logging stages in-flight lines
        # in DRAM and keeps them readable through this hook.
        self.read_interceptor = None

    def is_persistent(self, addr: int) -> bool:
        return addr >= self.config.nvmm_base

    # ------------------------------------------------------------------
    # Cache-line path
    # ------------------------------------------------------------------

    def read_line(self, addr: int, now_ns: float) -> Tuple[Tuple[int, ...], float]:
        if self.is_persistent(addr):
            if self.read_interceptor is not None:
                staged = self.read_interceptor(addr)
                if staged is not None:
                    return tuple(staged), now_ns + DRAM_READ_NS
            return self.nvm.read_line(addr, now_ns)
        return self.dram.read_line(addr, now_ns)

    def write_line(self, addr: int, words: Sequence[int], now_ns: float) -> float:
        """Write back one cache line; returns the producer-visible time.

        NVMM line writes are posted (the producer resumes at queue-accept
        time); DRAM writes complete at fixed latency.
        """
        if self.is_persistent(addr):
            if self.data_write_observer is not None:
                self.data_write_observer(addr, words)
            return self.nvm.write_data_line(addr, words, now_ns).accept_ns
        return self.dram.write_line(addr, words, now_ns)
