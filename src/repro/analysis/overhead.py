"""Hardware-overhead arithmetic: Table I and the SLDE costs (section IV-C).

These are closed-form functions of the configuration, reproduced exactly
from the paper's formulas so the bench can print Table I for any config.
"""

from dataclasses import dataclass
from typing import Dict

from repro.common.config import SystemConfig

# Buffer entry field widths (Figure 7), in bits.
ENTRY_TYPE_BITS = 2
ENTRY_TID_BITS = 8
ENTRY_TXID_BITS = 16
ENTRY_ADDR_BITS = 48
WORD_BITS = 64

# L1 line extensions (Figure 7): 8-bit TID + 16-bit TxID + 16-bit state.
L1_EXT_BITS = 8 + 16 + 16

# Synthesis results the paper reports for the SLDE codec (section IV-C).
SLDE_LOGIC_GATES = 4200
SLDE_ENCODE_LATENCY_NS = 1.0
SLDE_ENCODE_ENERGY_PJ = 1.4
SLDE_DECODE_ENERGY_PJ = 1.3


def _entry_bits(n_data_words: int, with_dirty_flag: bool, dirty_flag_granularity: int) -> int:
    bits = (
        ENTRY_TYPE_BITS
        + ENTRY_TID_BITS
        + ENTRY_TXID_BITS
        + ENTRY_ADDR_BITS
        + n_data_words * WORD_BITS
    )
    if with_dirty_flag:
        bits += n_data_words * WORD_BITS // (8 * dirty_flag_granularity)
    return bits


@dataclass(frozen=True)
class HardwareOverhead:
    """Table I, parameterized by the configuration."""

    log_registers_bytes: int
    l1_extension_bits_per_line: int
    undo_redo_buffer_bytes: float
    redo_buffer_bytes: float
    ulog_counters_bytes: float


def morphable_logging_overhead(config: SystemConfig) -> HardwareOverhead:
    """Reproduce Table I for any configuration.

    With the paper's defaults (16-entry undo+redo buffer, 32-entry redo
    buffer, byte-granularity dirty flags, 8 hardware threads) this yields
    the published 16 B registers / 40-bit line extension / 404 B / 552 B /
    20 B rows.
    """
    with_dirty = config.encoding.dirty_flags
    gran = config.encoding.dirty_flag_granularity_bytes
    ur_bits = _entry_bits(2, with_dirty, gran)
    redo_bits = _entry_bits(1, with_dirty, gran)
    l1_bits = L1_EXT_BITS
    if with_dirty:
        # One dirty flag bit per byte of each 64-bit word in the line.
        l1_bits += (64 // gran)
    return HardwareOverhead(
        log_registers_bytes=16,
        l1_extension_bits_per_line=l1_bits,
        undo_redo_buffer_bytes=config.logging.undo_redo_buffer_entries * ur_bits / 8,
        redo_buffer_bytes=config.logging.redo_buffer_entries * redo_bits / 8,
        ulog_counters_bytes=(
            config.cores.n_cores * 20 / 8 if config.logging.delay_persistence else 0.0
        ),
    )


def slde_overhead(config: SystemConfig) -> Dict[str, float]:
    """Section IV-C: SLDE capacity / latency / logic / energy overheads."""
    gran = config.encoding.dirty_flag_granularity_bytes
    # Capacity overhead of dirty flags per entry type and L1 lines
    # (formulas from section IV-C: n/m flag bits over the entry size).
    ur_entry_bits = _entry_bits(2, False, gran)
    redo_entry_bits = _entry_bits(1, False, gran)
    return {
        "dirty_flag_overhead_ur_entry": (128 / (8 * gran)) / ur_entry_bits,
        "dirty_flag_overhead_redo_entry": (64 / (8 * gran)) / redo_entry_bits,
        "dirty_flag_overhead_l1_line": (64 / gran) / (64 * 8),
        # Metadata bit per 64-byte log block + encoding type flags.
        "flag_bit_overhead": 1 / 512 + max(3 / 202, 2 / 138),
        "logic_gates": SLDE_LOGIC_GATES,
        "encode_latency_ns": SLDE_ENCODE_LATENCY_NS,
        "encode_energy_pj": SLDE_ENCODE_ENERGY_PJ,
        "decode_energy_pj": SLDE_DECODE_ENERGY_PJ,
    }
