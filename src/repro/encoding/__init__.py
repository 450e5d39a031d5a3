"""Data encoding for NVMM writes (paper section IV).

This subpackage implements the full encoding pipeline the paper evaluates:

- :mod:`repro.encoding.fpc` — 64-bit frequent pattern compression, the
  general-purpose compressor CRADE builds on.
- :mod:`repro.encoding.expansion` — compression-ratio-aware expansion
  coding (incomplete data mapping onto the cheapest TLC levels).
- :mod:`repro.encoding.crade` — FPC + expansion coding, the paper's
  state-of-the-art baseline codec.
- :mod:`repro.encoding.dldc` — differential log data compression
  (Table II), the log-aware codec MorLog contributes.
- :mod:`repro.encoding.slde` — selective log data encoding: run the
  alternative codec and DLDC in parallel, keep the cheaper result.
- :mod:`repro.encoding.flipnwrite` — Flip-N-Write, an extension baseline
  used in ablations.
"""

from repro.encoding.base import EncodedWord, WordCodec, RawCodec
from repro.encoding.bdi import BdiCodec
from repro.encoding.fpc import FpcCodec
from repro.encoding.crade import CradeCodec
from repro.encoding.dldc import DldcCodec, dldc_compress_pattern
from repro.encoding.memo import LruMemo
from repro.encoding.slde import SldeCodec, LogWriteContext
from repro.encoding.flipnwrite import FlipNWriteCodec
from repro.encoding.expansion import ExpansionPolicy, map_bits_to_cells, cells_to_bits

__all__ = [
    "EncodedWord",
    "WordCodec",
    "RawCodec",
    "BdiCodec",
    "FpcCodec",
    "CradeCodec",
    "DldcCodec",
    "dldc_compress_pattern",
    "LruMemo",
    "SldeCodec",
    "LogWriteContext",
    "FlipNWriteCodec",
    "ExpansionPolicy",
    "map_bits_to_cells",
    "cells_to_bits",
]


def make_codec(name: str, expansion_enabled: bool = True) -> WordCodec:
    """Build a codec by configuration name (see EncodingConfig)."""
    if name == "raw":
        return RawCodec()
    if name == "fpc":
        return FpcCodec(expansion_enabled=False)
    if name == "crade":
        return CradeCodec(expansion_enabled=expansion_enabled)
    if name == "bdi":
        return BdiCodec(expansion_enabled=expansion_enabled)
    if name == "flip-n-write":
        return FlipNWriteCodec()
    if name == "slde":
        return SldeCodec(expansion_enabled=expansion_enabled)
    if name == "slde-bdi":
        return SldeCodec(
            expansion_enabled=expansion_enabled,
            alternative=BdiCodec(expansion_enabled=expansion_enabled),
        )
    raise ValueError("unknown codec %r" % name)
