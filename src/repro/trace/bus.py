"""The trace bus: a bounded ring buffer components publish events to.

Design constraints (see ISSUE 3 / docs/tracing.md):

- **Zero cost when disabled.**  Components hold a ``tracer`` attribute
  that is ``None`` unless tracing was requested, and every emission site
  is guarded by ``if self.tracer is not None`` — the same pattern the
  fault-injection plan uses.  A disabled run executes no tracing code
  beyond that attribute test.
- **Inert when enabled.**  The bus only observes: it never mutates
  simulator state, never advances clocks, and drops (never blocks) when
  full, so a traced run is bit-identical to a traceless one
  (regression-tested in ``tests/test_trace_inert.py``).
- **Bounded.**  The ring keeps the newest ``capacity`` events and counts
  drops, so tracing a long run cannot exhaust memory.
"""

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional

from repro.trace.events import TraceEvent


@dataclass(frozen=True)
class TraceConfig:
    """Opt-in tracing knobs, threaded through ``make_system``."""

    enabled: bool = False
    #: Ring capacity in events; 0 means unbounded (tests, short runs).
    capacity: int = 65536
    #: Restrict collection to these categories; None collects everything.
    categories: Optional[frozenset] = None

    def make_bus(self) -> Optional["TraceBus"]:
        return TraceBus(self) if self.enabled else None


class TraceBus:
    """Bounded single-process event ring with drop accounting."""

    def __init__(self, config: Optional[TraceConfig] = None) -> None:
        self.config = config if config is not None else TraceConfig(enabled=True)
        maxlen = self.config.capacity or None
        self.events: Deque[TraceEvent] = deque(maxlen=maxlen)
        self.emitted = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)

    def emit(
        self,
        name: str,
        category: str,
        ts_ns: float,
        /,
        core: Optional[int] = None,
        txid: Optional[int] = None,
        addr: Optional[int] = None,
        dur_ns: float = 0.0,
        **args: Any,
    ) -> None:
        """Publish one event; never raises on a full ring (drops oldest).

        ``name``, ``category`` and ``ts_ns`` are positional-only so that
        event args may themselves be called ``name`` or ``category``.
        """
        categories = self.config.categories
        if categories is not None and category not in categories:
            return
        ring = self.events
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append(
            TraceEvent(
                name=name,
                category=category,
                ts_ns=ts_ns,
                core=core,
                txid=txid,
                addr=addr,
                dur_ns=dur_ns,
                args=args,
            )
        )
        self.emitted += 1

    def clear(self) -> None:
        self.events.clear()
        self.emitted = 0
        self.dropped = 0

    def summary(self) -> Dict[str, Any]:
        """Stable dict of bus-level accounting (sorted sub-keys)."""
        by_category: Dict[str, int] = {}
        by_name: Dict[str, int] = {}
        for event in self.events:
            by_category[event.category] = by_category.get(event.category, 0) + 1
            by_name[event.name] = by_name.get(event.name, 0) + 1
        return {
            "emitted": self.emitted,
            "dropped": self.dropped,
            "retained": len(self.events),
            "by_category": dict(sorted(by_category.items())),
            "by_name": dict(sorted(by_name.items())),
        }
