"""Shared utilities for the MorLog reproduction.

This subpackage holds the pieces every layer of the simulator needs:
bit/byte manipulation helpers (:mod:`repro.common.bitops`), configuration
dataclasses mirroring the paper's Table III (:mod:`repro.common.config`),
statistics counters and histograms (:mod:`repro.common.stats`), the
slot-filling constructor of the frozen value objects
(:mod:`repro.common.frozen`) and the exception hierarchy
(:mod:`repro.common.errors`).
"""

from repro.common.errors import (
    ConfigError,
    LogOverflowError,
    RecoveryError,
    SimulationError,
)

__all__ = [
    "ConfigError",
    "LogOverflowError",
    "RecoveryError",
    "SimulationError",
]
