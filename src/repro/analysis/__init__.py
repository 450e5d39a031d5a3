"""Measurement taps and paper-figure analyses.

- :mod:`repro.analysis.motivation` — Figures 3 and 5 and Table II, read
  from a recorded :class:`~repro.replay.StoreTrace` (the paper used
  PIN; we record the simulator's store stream).  Import it from its
  module: it loads numpy, and every CLI command and grid worker imports
  this package without needing it.
- :mod:`repro.analysis.walcheck` — the online write-ahead-ordering
  checker, a ``System.trace`` tap.
- :mod:`repro.analysis.overhead` — Table I and the SLDE overhead numbers.
- :mod:`repro.analysis.report` — plain-text table rendering.
"""

from repro.analysis.walcheck import WalChecker, attach_wal_checker
from repro.analysis.overhead import morphable_logging_overhead, slde_overhead
from repro.analysis.report import format_bars, format_table

__all__ = [
    "WalChecker",
    "attach_wal_checker",
    "morphable_logging_overhead",
    "slde_overhead",
    "format_bars",
    "format_table",
]
