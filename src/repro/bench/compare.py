"""The statistical comparator: one implementation for every diff path.

Both CLI comparison surfaces — the long-standing ``repro compare``
(designs against a baseline design) and the new ``repro bench compare`` /
``repro bench gate`` (one trajectory point against another) — classify
metrics here, so there is exactly one notion of "improved", "regressed"
and "unchanged" in the codebase.

Classification is *relative with a tolerance band*: a metric moves only
when its ratio to the baseline leaves ``1 ± tolerance``, judged in the
metric's direction of goodness.  ``info`` metrics never classify (they
ride along for context).  Repeats reduce by **paired best**: when a run
holds several records for one (benchmark, metric), the comparison takes
the best one per side — max for higher-is-better, min for lower-is-
better — the same noise filter the wall-clock benchmarks apply
(interference only ever pushes a measurement the bad way, so the best
repeat is the cleanest).
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.records import (
    DEFAULT_TOLERANCE,
    HIGHER,
    INFO,
    LOWER,
    BenchRecord,
)

IMPROVED = "improved"
REGRESSED = "regressed"
UNCHANGED = "unchanged"
SKIPPED = "skipped"  # not comparable (config mismatch / info / zero base)


def classify(
    baseline: float,
    value: float,
    direction: str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> str:
    """Classify ``value`` against ``baseline`` for one metric."""
    if direction == INFO or baseline == 0:
        return SKIPPED
    ratio = value / baseline
    if abs(ratio - 1.0) <= tolerance:
        return UNCHANGED
    better = ratio > 1.0 if direction == HIGHER else ratio < 1.0
    return IMPROVED if better else REGRESSED


@dataclass(frozen=True)
class MetricDelta:
    """One classified metric movement between two measurement sets."""

    benchmark: str
    metric: str
    baseline: float
    value: float
    direction: str
    tolerance: float
    verdict: str
    unit: str = ""
    note: str = ""

    @property
    def ratio(self) -> float:
        return self.value / self.baseline if self.baseline else float("nan")

    @property
    def key(self) -> str:
        return "%s/%s" % (self.benchmark, self.metric)

    def format(self) -> str:
        return "%-44s %12.4f -> %12.4f  (%+7.2f%%)  %s" % (
            self.key,
            self.baseline,
            self.value,
            100.0 * (self.ratio - 1.0) if self.baseline else float("nan"),
            self.verdict,
        )


def best_of(records: Sequence[BenchRecord]) -> BenchRecord:
    """Reduce repeats of one metric to the single record comparisons use."""
    if not records:
        raise ValueError("best_of needs at least one record")
    direction = records[0].direction
    if direction == HIGHER:
        return max(records, key=lambda r: r.value)
    if direction == LOWER:
        return min(records, key=lambda r: r.value)
    return records[-1]  # info: latest wins


def index_records(
    records: Iterable[BenchRecord],
) -> Dict[str, List[BenchRecord]]:
    """Group records by comparison key, preserving order within a key."""
    index: Dict[str, List[BenchRecord]] = {}
    for rec in records:
        index.setdefault(rec.key, []).append(rec)
    return index


@dataclass(frozen=True)
class ComparisonReport:
    """Every classified metric between two record sets."""

    deltas: Tuple[MetricDelta, ...]

    def by_verdict(self, verdict: str) -> List[MetricDelta]:
        return [d for d in self.deltas if d.verdict == verdict]

    @property
    def regressions(self) -> List[MetricDelta]:
        return self.by_verdict(REGRESSED)

    def counts(self) -> Dict[str, int]:
        out = {IMPROVED: 0, REGRESSED: 0, UNCHANGED: 0, SKIPPED: 0}
        for delta in self.deltas:
            out[delta.verdict] += 1
        return out

    def summary(self) -> str:
        counts = self.counts()
        return (
            "%d metric(s): %d improved, %d regressed, %d unchanged, %d skipped"
            % (
                len(self.deltas),
                counts[IMPROVED],
                counts[REGRESSED],
                counts[UNCHANGED],
                counts[SKIPPED],
            )
        )


def compare_records(
    baseline: Iterable[BenchRecord],
    candidate: Iterable[BenchRecord],
    tolerance_override: Optional[float] = None,
    require_matching_config: bool = True,
) -> ComparisonReport:
    """Classify every candidate metric that also exists in the baseline.

    Records pair on (benchmark, metric) *at the candidate's config
    digest*: a baseline file may hold the same metric measured at
    several scales/configurations (the committed baseline does), and
    each candidate record is compared against the baseline population
    with its own digest.  A metric whose baseline exists only under
    other digests is ``skipped`` (measured under a different
    configuration or scale — not comparable) unless
    ``require_matching_config`` is off.  The tolerance is the candidate
    record's own band unless overridden.
    """
    baseline = list(baseline)
    base_index = index_records(baseline)
    base_by_digest: Dict[Tuple[str, str], List[BenchRecord]] = {}
    for rec in baseline:
        base_by_digest.setdefault((rec.key, rec.config_digest), []).append(rec)
    cand_index = index_records(candidate)
    deltas: List[MetricDelta] = []
    for key in sorted(cand_index):
        cand = best_of(cand_index[key])
        if key not in base_index:
            continue  # new metric: nothing to compare against
        matching = base_by_digest.get((key, cand.config_digest))
        base = best_of(matching if matching else base_index[key])
        tolerance = (
            cand.effective_tolerance()
            if tolerance_override is None
            else tolerance_override
        )
        note = ""
        if not cand.gates or not base.gates:
            verdict = SKIPPED
            note = "info metric"
        elif require_matching_config and not matching:
            verdict = SKIPPED
            note = "config digest mismatch"
        else:
            verdict = classify(base.value, cand.value, cand.direction, tolerance)
            if verdict == SKIPPED:
                note = "zero baseline"
        deltas.append(
            MetricDelta(
                benchmark=cand.benchmark,
                metric=cand.metric,
                baseline=base.value,
                value=cand.value,
                direction=cand.direction,
                tolerance=tolerance,
                verdict=verdict,
                unit=cand.unit,
                note=note,
            )
        )
    return ComparisonReport(deltas=tuple(deltas))


# ---------------------------------------------------------------------------
# RunResult comparison (shared with ``repro compare``)
# ---------------------------------------------------------------------------

#: The metrics a design-vs-design comparison reports, with directions.
RUN_RESULT_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("throughput_tx_per_s", "throughput", HIGHER),
    ("nvmm_writes", "NVMM writes", LOWER),
    ("nvmm_write_energy_pj", "write energy", LOWER),
)


def run_result_deltas(
    benchmark: str,
    baseline,
    result,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[MetricDelta]:
    """Classified deltas of one :class:`RunResult` against a baseline.

    The ``repro compare`` table is these deltas' ratios; the bench CLI
    reuses the same classification for design comparisons.
    """
    deltas = []
    for attr, label, direction in RUN_RESULT_METRICS:
        base_value = float(getattr(baseline, attr))
        value = float(getattr(result, attr))
        deltas.append(
            MetricDelta(
                benchmark=benchmark,
                metric=label,
                baseline=base_value,
                value=value,
                direction=direction,
                tolerance=tolerance,
                verdict=classify(base_value, value, direction, tolerance),
            )
        )
    return deltas
