"""Statistics primitives: counters, histograms, and derived metrics.

Every component of the simulator owns a :class:`StatGroup`; the system
aggregates them into one report.  Histograms use the bucket scheme of the
paper's Figure 3 (write distance: First / 0-1 / 2-3 / ... / >=128).
"""

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


class StatGroup:
    """A named bag of additive counters.

    Counters spring into existence on first use so components do not need
    a registration step.  Reports canonicalize to sorted key order:
    insertion order depends on execution history (with :meth:`merge` over
    disjoint key sets it even depends on which worker's group arrives
    first), so it must never leak into anything that gets compared,
    hashed, or diffed.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, float] = {}

    def add(self, key: str, amount: float = 1.0) -> None:
        self._counters[key] = self._counters.get(key, 0.0) + amount

    def set(self, key: str, value: float) -> None:
        self._counters[key] = value

    def get(self, key: str, default: float = 0.0) -> float:
        return self._counters.get(key, default)

    def merge(self, other: "StatGroup") -> None:
        for key, value in other._counters.items():
            self.add(key, value)

    def as_dict(self) -> Dict[str, float]:
        return dict(sorted(self._counters.items()))

    def reset(self) -> None:
        self._counters.clear()

    def __contains__(self, key: str) -> bool:
        return key in self._counters

    def __repr__(self) -> str:
        return "StatGroup(%r, %d counters)" % (self.name, len(self._counters))


# Bucket upper bounds for the Figure 3 write-distance distribution.  The
# label "First Write" is handled separately; distances land in the bucket
# whose range contains them.
WRITE_DISTANCE_BUCKETS: Tuple[Tuple[int, Optional[int], str], ...] = (
    (0, 1, "0-1"),
    (2, 3, "2-3"),
    (4, 7, "4-7"),
    (8, 15, "8-15"),
    (16, 31, "16-31"),
    (32, 63, "32-63"),
    (64, 127, "64-127"),
    (128, None, ">=128"),
)


class Histogram:
    """Fixed-bucket histogram over non-negative integers."""

    def __init__(
        self,
        buckets: Sequence[Tuple[int, Optional[int], str]] = WRITE_DISTANCE_BUCKETS,
    ) -> None:
        self._buckets = tuple(buckets)
        self._counts: List[int] = [0] * len(self._buckets)
        self._total = 0

    def observe(self, value: int, weight: int = 1) -> None:
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        for i, (lo, hi, _label) in enumerate(self._buckets):
            if value >= lo and (hi is None or value <= hi):
                self._counts[i] += weight
                self._total += weight
                return
        raise ValueError("value %d fits no bucket" % value)

    @property
    def total(self) -> int:
        return self._total

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for (_lo, _hi, label), count in zip(self._buckets, self._counts):
            out[label] = count
        return out

    def proportions(self) -> Dict[str, float]:
        total = self._total or 1
        out: Dict[str, float] = {}
        for label, count in self.counts().items():
            out[label] = count / total
        return out

    def merge(self, other: "Histogram") -> None:
        if self._buckets != other._buckets:
            raise ValueError("cannot merge histograms with different buckets")
        for i, count in enumerate(other._counts):
            self._counts[i] += count
        self._total += other._total


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, as the paper uses for normalized throughput (Gmean)."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def normalize(values: Mapping[str, float], baseline_key: str) -> Dict[str, float]:
    """Normalize a mapping of design -> metric to one design (Figs 12-14)."""
    baseline = values[baseline_key]
    if baseline == 0:
        raise ValueError("baseline metric is zero")
    return {key: value / baseline for key, value in values.items()}
