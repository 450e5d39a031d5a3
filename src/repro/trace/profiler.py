"""Host-side phase profiler: where does simulation *wall time* go?

Distinct from the trace bus, which records *simulated* time.  The
profiler wraps the hot entry points of a built :class:`System` with
timing shims and attributes host wall-clock time to phases:

- ``logging``  — the hardware logger's hooks (on_store, commit, tick,
  eviction callbacks, drain);
- ``encoding`` — every codec encode/decode call (SLDE, CRADE, FPC, ...);
- ``nvm``      — the NVM module's write/read paths and bank timing;
- ``cache``    — the cache-hierarchy access path;
- ``workload`` — everything else (transaction bodies, run loop), computed
  as total wall time minus the accounted phases.

Nested calls attribute exclusively: codec time spent inside an NVM write
counts as ``encoding``, not twice.  Wrapping costs real overhead, so the
profiler is strictly an opt-in diagnosis tool (``repro profile``); it
never touches simulated timing, only observes host time.
"""

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.report import format_table

PHASES = ("logging", "encoding", "nvm", "cache", "workload")


@dataclass
class PhaseStat:
    calls: int = 0
    seconds: float = 0.0


@dataclass
class ProfileReport:
    """Per-phase host wall time for one profiled run."""

    phases: Dict[str, PhaseStat] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def accounted_seconds(self) -> float:
        return sum(stat.seconds for stat in self.phases.values())

    @property
    def workload_seconds(self) -> float:
        return max(self.wall_seconds - self.accounted_seconds, 0.0)

    def as_dict(self) -> Dict[str, float]:
        """Stable flat dict (sorted keys) for snapshots and CI artifacts."""
        out = {"wall_seconds": self.wall_seconds}
        for phase, stat in self.phases.items():
            out["%s_seconds" % phase] = stat.seconds
            out["%s_calls" % phase] = float(stat.calls)
        out["workload_seconds"] = self.workload_seconds
        return dict(sorted(out.items()))

    def format(self, title: str = "profile") -> str:
        wall = self.wall_seconds or 1.0
        rows: List[List[Any]] = []
        for phase, stat in sorted(
            self.phases.items(), key=lambda item: -item[1].seconds
        ):
            rows.append(
                [phase, stat.calls, stat.seconds, 100.0 * stat.seconds / wall]
            )
        rows.append(
            ["workload", "-", self.workload_seconds,
             100.0 * self.workload_seconds / wall]
        )
        rows.append(["total (wall)", "-", self.wall_seconds, 100.0])
        return format_table(
            ["phase", "calls", "seconds", "% of wall"], rows, title
        )


class PhaseProfiler:
    """Wraps a System's components with exclusive-time shims."""

    def __init__(self) -> None:
        self.stats: Dict[str, PhaseStat] = {}
        self._stack: List[List[Any]] = []   # [phase, child_seconds]
        self._wrapped: List[Tuple[Any, str, Any]] = []
        self._run_started: Optional[float] = None
        self.wall_seconds = 0.0

    # ------------------------------------------------------------------
    # Wrapping machinery
    # ------------------------------------------------------------------

    def _wrap(self, fn, phase: str):
        stats = self.stats.setdefault(phase, PhaseStat())
        stack = self._stack

        def shim(*args, **kwargs):
            start = time.perf_counter()
            frame = [phase, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.seconds += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return shim

    def _install_method(self, obj: Any, attr: str, phase: str) -> None:
        fn = getattr(obj, attr, None)
        if fn is None:
            return
        self._wrapped.append((obj, attr, fn))
        setattr(obj, attr, self._wrap(fn, phase))

    def install(self, system) -> "PhaseProfiler":
        """Shim a built (not yet run) System's hot paths."""
        logger = system.logger
        for attr in (
            "begin_tx", "on_store", "on_nt_store", "commit_tx", "tick",
            "drain", "on_l1_evict", "before_llc_write_back",
        ):
            self._install_method(logger, attr, "logging")
        module = system.controller.nvm
        for attr in ("write_data_line", "write_log_entry", "read_line",
                     "decode_word"):
            self._install_method(module, attr, "nvm")
        codecs = {id(module.data_codec): module.data_codec,
                  id(module.log_codec): module.log_codec}
        for codec in codecs.values():
            for attr in ("encode", "encode_line", "encode_log",
                         "encode_undo_redo_pair", "decode"):
                self._install_method(codec, attr, "encoding")
        self._install_method(system.hierarchy, "access", "cache")
        self._install_method(system.hierarchy, "force_write_back_scan", "cache")
        return self

    def uninstall(self) -> None:
        """Restore every wrapped method (instance attribute deletion)."""
        for obj, attr, _fn in reversed(self._wrapped):
            try:
                delattr(obj, attr)
            except AttributeError:
                pass
        self._wrapped.clear()

    # ------------------------------------------------------------------
    # Whole-run timing
    # ------------------------------------------------------------------

    def __enter__(self) -> "PhaseProfiler":
        self._run_started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_seconds += time.perf_counter() - (self._run_started or 0.0)
        self._run_started = None

    def report(self) -> ProfileReport:
        phases = {
            phase: PhaseStat(stat.calls, stat.seconds)
            for phase, stat in sorted(self.stats.items())
        }
        return ProfileReport(phases=phases, wall_seconds=self.wall_seconds)


def profile_design(
    design: str,
    workload_name: str,
    dataset=None,
    n_transactions: Optional[int] = None,
    n_threads: Optional[int] = None,
    config=None,
    params=None,
):
    """Run one cell under the profiler; returns (RunResult, ProfileReport).

    Resolves through :func:`repro.experiments.parallel.resolve_cell`, so
    an explicit non-positive count raises ``ValueError``, and builds a
    fresh system with :func:`repro.experiments.parallel.build_cell` (the
    shims do not survive ``reset_machine``, so the profiled run must be
    the machine's first).
    """
    from repro.experiments.parallel import build_cell, resolve_cell
    from repro.workloads.base import DatasetSize

    spec = resolve_cell(
        design,
        workload_name,
        dataset if dataset is not None else DatasetSize.SMALL,
        config=config,
        params=params,
        n_transactions=n_transactions,
        n_threads=n_threads,
    )
    system, workload = build_cell(spec)
    profiler = PhaseProfiler().install(system)
    try:
        with profiler:
            result = system.run(workload, spec.n_transactions, spec.n_threads)
    finally:
        profiler.uninstall()
    return result, profiler.report()
