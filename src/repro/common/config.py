"""Configuration dataclasses mirroring the paper's simulated system.

The defaults reproduce Table III of the paper: an 8-core 3 GHz in-order
processor with 32 KB L1 / 256 KB L2 / 8 MB shared L3 caches over an 8 GB TLC
RRAM main memory with 4 channels, 8 banks, an FRFCFS-WQF scheduler with a
64-entry write queue and an 80 % drain watermark.  The TLC program latency
and energy tables come straight from the paper (which takes them from the
CompEx / IDM / CRADE line of work).
"""

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from repro.common.errors import ConfigError

# Per-level TLC RRAM program latency in nanoseconds (Table III).  The key is
# the 3-bit target level.
TLC_WRITE_LATENCY_NS: Dict[int, float] = {
    0b000: 15.2,
    0b001: 46.8,
    0b010: 98.3,
    0b011: 143.0,
    0b100: 150.0,
    0b101: 101.0,
    0b110: 52.7,
    0b111: 12.1,
}

# Per-level TLC RRAM program energy in picojoules per cell (Table III).
TLC_WRITE_ENERGY_PJ: Dict[int, float] = {
    0b000: 2.0,
    0b001: 6.7,
    0b010: 19.3,
    0b011: 35.1,
    0b100: 35.6,
    0b101: 19.6,
    0b110: 8.5,
    0b111: 1.5,
}

TLC_READ_LATENCY_NS = 25.0


@dataclass(frozen=True)
class CoreConfig:
    """Processor core parameters (Table III, "Cores")."""

    n_cores: int = 8
    freq_ghz: float = 3.0
    # Fixed pipeline cost charged per executed operation, in cycles.  The
    # paper's cores are in-order single-issue; non-memory work between
    # stores is folded into this constant.
    base_op_cycles: int = 1
    # Stores that hit in the L1 retire through the store buffer in one
    # cycle instead of paying the full L1 access latency.
    store_hit_cycles: int = 1

    @property
    def ns_per_cycle(self) -> float:
        return 1.0 / self.freq_ghz


@dataclass(frozen=True)
class CacheLevelConfig:
    """One level of the cache hierarchy."""

    size_bytes: int
    assoc: int
    line_bytes: int
    latency_cycles: int
    shared: bool = False

    @property
    def n_sets(self) -> int:
        n_lines = self.size_bytes // self.line_bytes
        if n_lines % self.assoc:
            raise ConfigError("cache size not divisible by associativity")
        return n_lines // self.assoc


@dataclass(frozen=True)
class CacheConfig:
    """Three-level hierarchy (Table III)."""

    l1: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(32 * 1024, 8, 64, 4)
    )
    l2: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(256 * 1024, 8, 64, 12)
    )
    l3: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(8 * 1024 * 1024, 16, 64, 28, shared=True)
    )

    @property
    def line_bytes(self) -> int:
        return self.l1.line_bytes


@dataclass(frozen=True)
class NVMConfig:
    """TLC RRAM main memory (Table III, "Main Memory")."""

    size_bytes: int = 8 * 1024 ** 3
    channels: int = 4
    ranks: int = 1
    banks: int = 8
    read_latency_ns: float = TLC_READ_LATENCY_NS
    # FRFCFS-WQF write queue
    write_queue_entries: int = 64
    drain_watermark: float = 0.8
    bits_per_cell: int = 3
    # Multiplier applied to every per-level program latency; the section
    # VI-E sensitivity study sweeps this from 1x to 32x.
    write_latency_scale: float = 1.0
    # Fixed per-access overhead (row activation, bus transfer), ns.
    access_overhead_ns: float = 10.0

    def write_latency_ns(self, level: int) -> float:
        return TLC_WRITE_LATENCY_NS[level] * self.write_latency_scale

    def write_energy_pj(self, level: int) -> float:
        return TLC_WRITE_ENERGY_PJ[level]


@dataclass(frozen=True)
class LoggingConfig:
    """Hardware logging parameters (sections III and VI-A)."""

    # Default buffer sizes from section VI-A.
    undo_redo_buffer_entries: int = 16
    redo_buffer_entries: int = 32
    # Entries are eagerly evicted N cycles after insertion, where N must be
    # below the minimum latency of traversing the cache hierarchy
    # (section III-B).  With 4+12+28 cycle caches the paper's bound is the
    # L1+L2+L3 traversal; we use the sum of the three latencies.
    eager_evict_cycles: int = 44
    # Delay-persistence commit protocol (section III-C).
    delay_persistence: bool = False
    # Force-write-back scan period in cycles (section VI-A: every 3M cycles).
    fwb_interval_cycles: int = 3_000_000
    # Log region size in bytes.
    log_region_bytes: int = 64 * 1024 * 1024
    # Centralized vs distributed (per-thread) logs (section III-F).
    distributed_logs: bool = False
    # Reproduce the paper's literal "discard redo entries when the LLC
    # evicts the line" (section III-A).  Unsafe for recovery (see
    # DESIGN.md); the default logs the entry at write-back instead.
    unsafe_llc_redo_discard: bool = False
    # Log management (section III-F): "fwb-scan" frees entries of
    # transactions committed before the last two force-write-back scans;
    # "tx-table" keeps a per-transaction count of cache lines still
    # holding its updates and frees as soon as it reaches zero.
    truncation: str = "fwb-scan"
    # --- Extension designs (the comparative persistence-design testbed) ---
    # InCLL-CRADE: embedded undo slots reserved per cache line; stores
    # beyond this count within one epoch overflow to the central log.
    incll_slots_per_line: int = 2
    # CoW-Page: shadow-page granularity in bytes (power of two, a
    # multiple of the 64-byte line).
    page_bytes: int = 4096
    # Ckpt-Undo: checkpoint after this many commits, then compact the
    # log by dropping entries the checkpoint superseded.  0 disables
    # checkpointing (plain undo-only behaviour).
    checkpoint_interval_tx: int = 8


@dataclass(frozen=True)
class EncodingConfig:
    """Data encoding pipeline configuration (section IV)."""

    # Codec for in-place (non-log) data: "crade", "fpc", "raw",
    # "flip-n-write".
    data_codec: str = "crade"
    # Codec for log data: "slde" (DLDC + alternative in parallel) or the
    # same choices as data_codec.
    log_codec: str = "slde"
    # Expansion coding can be disabled to count raw log bits (Table VI).
    expansion_enabled: bool = True
    # Bytes of log data covered by one dirty-flag bit (section VI-A: one
    # flag bit per log data byte).
    dirty_flag_granularity_bytes: int = 1
    # Secure-NVMM interaction (section IV-D): "none" (plaintext),
    # "full" (naive counter-mode encryption — every dirty word becomes
    # fully dirty, incompressible ciphertext), "deuce" (DEUCE re-encrypts
    # only dirty words, so clean words — and silent log writes — survive).
    secure_mode: str = "none"

    @property
    def dirty_flags(self) -> bool:
        """SLDE dirty flags exist whenever the log codec is SLDE-based."""
        return self.log_codec in ("slde", "slde-bdi")


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a :class:`repro.core.system.System`."""

    cores: CoreConfig = field(default_factory=CoreConfig)
    caches: CacheConfig = field(default_factory=CacheConfig)
    nvm: NVMConfig = field(default_factory=NVMConfig)
    logging: LoggingConfig = field(default_factory=LoggingConfig)
    encoding: EncodingConfig = field(default_factory=EncodingConfig)
    # Base physical address of persistent (NVMM) data; DRAM sits below.
    nvmm_base: int = 0x1_0000_0000
    seed: int = 42

    def validate(self) -> None:
        if self.cores.n_cores <= 0:
            raise ConfigError("n_cores must be positive")
        if not 0.0 < self.nvm.drain_watermark <= 1.0:
            raise ConfigError("drain watermark must be in (0, 1]")
        if self.logging.undo_redo_buffer_entries <= 0:
            raise ConfigError("undo+redo buffer needs at least one entry")
        if self.logging.redo_buffer_entries < 0:
            raise ConfigError("redo buffer size cannot be negative")
        if self.caches.l1.line_bytes != 64:
            raise ConfigError("the model assumes 64-byte cache lines")
        data_codecs = {"crade", "fpc", "bdi", "raw", "flip-n-write"}
        if self.encoding.data_codec not in data_codecs:
            raise ConfigError("unknown data codec %r" % self.encoding.data_codec)
        if self.encoding.log_codec not in data_codecs | {"slde", "slde-bdi"}:
            raise ConfigError("unknown log codec %r" % self.encoding.log_codec)
        if self.logging.truncation not in {"fwb-scan", "tx-table"}:
            raise ConfigError(
                "unknown truncation policy %r" % self.logging.truncation
            )
        if not 1 <= self.logging.incll_slots_per_line <= 8:
            raise ConfigError(
                "incll_slots_per_line must be in [1, 8]"
            )
        page = self.logging.page_bytes
        if page < 64 or page % 64 or page & (page - 1):
            raise ConfigError(
                "page_bytes must be a power-of-two multiple of 64"
            )
        if self.logging.checkpoint_interval_tx < 0:
            raise ConfigError("checkpoint_interval_tx cannot be negative")
        if self.encoding.secure_mode not in {"none", "full", "deuce"}:
            raise ConfigError(
                "unknown secure mode %r" % self.encoding.secure_mode
            )

    def with_changes(self, **kwargs) -> "SystemConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **kwargs)


def tlc_levels_sorted_by_latency() -> Tuple[int, ...]:
    """TLC levels from fastest to slowest program latency.

    Expansion coding (IDM / CompEx) restricts writes to the fastest subset
    of levels; this ordering defines those subsets.
    """
    return tuple(sorted(TLC_WRITE_LATENCY_NS, key=TLC_WRITE_LATENCY_NS.get))
