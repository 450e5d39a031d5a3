"""Host-time spans around calls into each simulator layer.

The benchmark's own tracer: a :class:`SpanRecorder` replaces public
methods of a built :class:`~repro.core.system.System` (and its logger,
NVM module, codecs and cache hierarchy) with timing shims set as
instance attributes, at the same layer boundaries the repository's phase
profiler uses.  It deliberately does not import that profiler, so edits
to the program's own tracing cannot move the benchmark.

Every span accumulates, per name, its call count, its inclusive time and
its exclusive self time (inclusive time minus the time of spans nested
inside it).  Everything stays in memory; :meth:`SpanRecorder.as_dict`
gives the totals for writing out when the run ends.
"""

import time
from typing import Any, Callable, Dict, List

# Logger hooks sharing the "logging_hw.hook" span.  Commit and drain get
# spans of their own so their time can be read apart from the per-store
# hooks.
LOGGER_HOOKS = (
    "begin_tx", "on_store", "on_nt_store", "tick", "on_l1_evict",
    "before_llc_write_back", "on_fwb_scan",
)
CODEC_METHODS = ("encode", "encode_line", "encode_log",
                 "encode_undo_redo_pair", "decode")


class SpanRecorder:
    """Per-name call counts, inclusive and exclusive host seconds."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self._stack: List[List[float]] = []  # child seconds per open span

    def wrap(self, fn: Callable, name: str) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``."""
        self.calls.setdefault(name, 0)
        self.total_s.setdefault(name, 0.0)
        self.self_s.setdefault(name, 0.0)
        calls, total_s, self_s, stack = (
            self.calls, self.total_s, self.self_s, self._stack)
        clock = time.perf_counter

        def shim(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return shim

    def patch(self, obj: Any, attr: str, name: str) -> None:
        """Shim ``obj.attr`` in place (an instance attribute)."""
        fn = getattr(obj, attr, None)
        if fn is not None:
            setattr(obj, attr, self.wrap(fn, name))

    def install(self, system) -> None:
        """Shim every layer boundary of a built, not yet run, System."""
        logger = system.logger
        for attr in LOGGER_HOOKS:
            self.patch(logger, attr, "logging_hw.hook")
        self.patch(logger, "commit_tx", "logging_hw.commit")
        self.patch(logger, "drain", "logging_hw.drain")
        module = system.controller.nvm
        for attr in ("write_data_line", "write_log_entry"):
            self.patch(module, attr, "nvm.write")
        for attr in ("read_line", "decode_word"):
            self.patch(module, attr, "nvm.read")
        codecs = {id(module.data_codec): module.data_codec,
                  id(module.log_codec): module.log_codec}
        for codec in codecs.values():
            for attr in CODEC_METHODS:
                self.patch(codec, attr, "encoding")
        self.patch(system.hierarchy, "access", "cache.access")
        self.patch(system.hierarchy, "force_write_back_scan", "cache.fwb_scan")
        self.patch(system, "run_transaction", "core.tx")

    def install_workload(self, workload) -> None:
        self.patch(workload, "setup", "workloads.setup")

    def span_self(self, *prefixes: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefixes))

    def span_calls(self, *prefixes: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(prefixes))

    def span_total(self, name: str) -> float:
        return self.total_s.get(name, 0.0)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in sorted(self.calls)
        }
