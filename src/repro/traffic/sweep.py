"""Offered-load sweeps: designs × loads, parallel, cached, observed.

The traffic analogue of the grid engine: each (design, offered-load)
point is resolved to an explicit serializable cell in the parent —
``REPRO_SCALE`` applied exactly once — checked against the
content-addressed cache, and only the misses fan out over a process
pool.  Assembly is by cell identity, never completion order, so a
``jobs=4`` sweep is bit-identical to a serial one.

On top of the raw points this module computes the *overload knee* (the
first offered load where tail latency has blown past the lightly-loaded
baseline while goodput has stopped following offered load), renders the
SLO table, and emits everything as BenchRecords for the PR-5
observatory.
"""

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.records import HIGHER, INFO, LOWER, BenchRecord, record
from repro.experiments.cache import PayloadCache, traffic_key_fields
from repro.experiments.parallel import GridReport
from repro.experiments.serialize import (
    config_to_dict,
    stable_hash,
    strip_result_inert_encoding,
)
from repro.traffic.engine import (
    TrafficConfig,
    TrafficResult,
    run_traffic,
    traffic_config_from_dict,
    traffic_config_to_dict,
    traffic_result_from_dict,
)
from repro.workloads.mixture import blend_slug

#: Floor on arrivals after REPRO_SCALE shrinks a sweep — fewer and the
#: p99 of the sample stops meaning anything at all.
MIN_ARRIVALS = 30


@dataclass(frozen=True)
class TrafficCellSpec:
    """One fully-resolved traffic point: everything a worker needs."""

    design: str
    traffic_dict: Dict[str, Any]
    config_dict: Dict[str, Any]
    repro_scale: float

    def key_fields(self) -> Dict[str, Any]:
        return traffic_key_fields(
            self.design, self.traffic_dict, self.config_dict, self.repro_scale)

    def key(self) -> str:
        return stable_hash(self.key_fields())

    def labels(self) -> Tuple[str, str, str]:
        """``(design, workload, dataset)`` as reports and failures name it."""
        return self.design, "mix", "traffic"

    def execute(self, trace_path: Optional[str]) -> Dict[str, Any]:
        """The engine's worker body: run this point, return its result dict.

        Traffic cells export no Chrome trace; ``trace_path`` is unused.
        """
        from repro.experiments.serialize import config_from_dict

        return run_traffic(
            self.design,
            traffic_config_from_dict(self.traffic_dict),
            config=config_from_dict(self.config_dict),
        ).to_dict()

    decode = staticmethod(traffic_result_from_dict)


def resolve_traffic_cell(
    design: str,
    traffic: TrafficConfig,
    config=None,
) -> TrafficCellSpec:
    """Resolve one (design, scenario) point, applying ``REPRO_SCALE``."""
    from repro.experiments.runner import _scale, default_config

    scale = _scale()
    config = config if config is not None else default_config()
    resolved = replace(
        traffic,
        arrivals=max(int(round(traffic.arrivals * scale)), MIN_ARRIVALS),
    )
    resolved.validate()
    return TrafficCellSpec(
        design=design,
        traffic_dict=traffic_config_to_dict(resolved),
        config_dict=config_to_dict(config),
        repro_scale=scale,
    )


def run_traffic_cells(
    specs: List[TrafficCellSpec],
    jobs: Optional[int] = None,
    cache: Optional[PayloadCache] = None,
    retries: int = 0,
    timeout_s: Optional[float] = None,
    fail_soft: bool = False,
) -> Tuple[List[TrafficResult], GridReport]:
    """Execute traffic cells on the sweep engine, in input order.

    :func:`~repro.experiments.megagrid.run_megagrid` does the work: each
    result streams into the cache the moment it finishes, duplicate
    specs are simulated once and fanned out, and with ``fail_soft=True``
    a crashing cell becomes a typed entry in ``report.failures`` while
    every other cell completes, its position held by ``None``.  The
    default stays fail-fast — load sweeps index into the flat result
    list positionally, so a failing cell raises
    :class:`~repro.experiments.megagrid.CellExecutionError` instead of
    silently shifting every later position.
    """
    from repro.experiments.megagrid import run_megagrid

    outcome = run_megagrid(
        list(specs), jobs=jobs, cache=cache, retries=retries,
        timeout_s=timeout_s, fail_soft=fail_soft)
    return outcome.results, outcome.report


@dataclass
class SweepOutcome:
    """Per-design load curves plus the execution report."""

    designs: List[str]
    loads: List[float]
    traffic: TrafficConfig
    results: Dict[str, List[TrafficResult]] = field(default_factory=dict)
    report: GridReport = field(default_factory=GridReport)

    def knee(self, design: str) -> Optional[float]:
        return find_knee(self.results[design])


def run_load_sweep(
    designs: Sequence[str],
    loads: Sequence[float],
    traffic: TrafficConfig,
    config=None,
    jobs: Optional[int] = None,
    cache: Optional[PayloadCache] = None,
) -> SweepOutcome:
    """Sweep offered load across designs; deterministic for any ``jobs``."""
    designs = list(designs)
    loads = list(loads)
    specs = [
        resolve_traffic_cell(
            design, replace(traffic, offered_tx_per_s=load), config)
        for design in designs
        for load in loads
    ]
    flat, report = run_traffic_cells(specs, jobs=jobs, cache=cache)
    results: Dict[str, List[TrafficResult]] = {}
    index = 0
    for design in designs:
        results[design] = flat[index:index + len(loads)]
        index += len(loads)
    return SweepOutcome(
        designs=designs, loads=loads, traffic=traffic,
        results=results, report=report)


def find_knee(
    results: Sequence[TrafficResult],
    p99_factor: float = 3.0,
    goodput_gain: float = 0.10,
) -> Optional[float]:
    """First offered load past the overload knee, or None.

    The knee is where the two SLO curves decouple: p99 commit latency
    has risen to ``p99_factor``× the lightest point's p99 (queueing
    dominates), while goodput captured less than ``goodput_gain`` of the
    relative offered-load increase since the previous point (the machine
    stopped converting load into throughput).
    """
    points = sorted(results, key=lambda r: r.offered_tx_per_s)
    if len(points) < 2:
        return None
    base_p99 = points[0].p99_latency_ns or 1.0
    for prev, cur in zip(points, points[1:]):
        p99_blown = cur.p99_latency_ns >= p99_factor * base_p99
        offered_growth = cur.offered_tx_per_s / prev.offered_tx_per_s - 1.0
        plateaued = cur.goodput_tx_per_s < prev.goodput_tx_per_s * (
            1.0 + goodput_gain * offered_growth)
        if p99_blown and plateaued:
            return cur.offered_tx_per_s
    return None


def slo_table(outcome: SweepOutcome) -> str:
    """Human-readable SLO table, one block per design."""
    lines: List[str] = []
    header = "%12s %12s %6s %6s %6s %10s %10s %10s %8s" % (
        "offered/s", "goodput/s", "admit", "done", "drop",
        "p50(us)", "p99(us)", "p999(us)", "maxq")
    for design in outcome.designs:
        lines.append("%s  [mix %s]" % (design, blend_slug(outcome.traffic.mix)))
        lines.append(header)
        for result in outcome.results[design]:
            lines.append(
                "%12.0f %12.0f %6d %6d %6d %10.2f %10.2f %10.2f %8d" % (
                    result.offered_tx_per_s,
                    result.goodput_tx_per_s,
                    result.admitted,
                    result.completed,
                    result.dropped,
                    result.p50_latency_ns / 1000.0,
                    result.p99_latency_ns / 1000.0,
                    result.p999_latency_ns / 1000.0,
                    result.max_queue_depth,
                ))
        knee = outcome.knee(design)
        lines.append(
            "overload knee: %s" % (
                "%.0f tx/s offered" % knee if knee is not None
                else "not reached in this load range"))
        lines.append("")
    return "\n".join(lines)


def sweep_records(outcome: SweepOutcome, config=None) -> List[BenchRecord]:
    """BenchRecords for every sweep point plus per-design knee markers.

    The config digest covers the system config *and* the traffic
    scenario (minus the swept offered load, which is in the benchmark
    id), so points from different scenarios can never be compared.
    """
    if config is None:
        from repro.experiments.runner import default_config

        config = default_config()
    from repro.bench.records import repro_scale

    scenario = traffic_config_to_dict(outcome.traffic)
    scenario.pop("offered_tx_per_s")
    digest = stable_hash({
        "config": strip_result_inert_encoding(config_to_dict(config)),
        "traffic": scenario,
        "scale": repro_scale(),
    })
    records: List[BenchRecord] = []
    for design in outcome.designs:
        for result in outcome.results[design]:
            benchmark = "traffic/%s/load_%d" % (
                design, int(round(result.offered_tx_per_s)))
            records.append(record(
                benchmark, "goodput_tx_per_s", result.goodput_tx_per_s,
                unit="tx/s", direction=HIGHER, config_digest=digest))
            for metric, value in (
                ("p50_latency_ns", result.p50_latency_ns),
                ("p99_latency_ns", result.p99_latency_ns),
                ("p999_latency_ns", result.p999_latency_ns),
            ):
                records.append(record(
                    benchmark, metric, value,
                    unit="ns", direction=LOWER, config_digest=digest))
            records.append(record(
                benchmark, "drop_rate", result.drop_rate,
                direction=INFO, config_digest=digest))
        knee = outcome.knee(design)
        records.append(record(
            "traffic/%s" % design, "knee_offered_tx_per_s",
            knee if knee is not None else 0.0,
            unit="tx/s", direction=INFO, config_digest=digest))
    return records
