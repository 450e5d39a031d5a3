"""The abstract's three headline numbers, in one function.

    "MorLog improves performance by 72.5%, reduces NVMM write traffic by
    41.1%, and decreases NVMM write energy by 49.9% compared with the
    state-of-the-art design."

The comparison is MorLog-DP vs FWB-CRADE, geometric-mean across the
evaluation workloads.  This module computes the same three deltas on this
reproduction's substrate so the shape (sign, rough magnitude, ordering)
is checkable in one place.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.common.stats import geometric_mean
from repro.experiments.runner import ExperimentScale
from repro.workloads.base import DatasetSize

PAPER_HEADLINE = {
    "throughput_improvement_pct": 72.5,
    "write_traffic_reduction_pct": 41.1,
    "write_energy_reduction_pct": 49.9,
}

DEFAULT_CELLS: Tuple[Tuple[str, DatasetSize], ...] = (
    ("btree", DatasetSize.SMALL),
    ("hash", DatasetSize.SMALL),
    ("queue", DatasetSize.SMALL),
    ("rbtree", DatasetSize.SMALL),
    ("sdg", DatasetSize.SMALL),
    ("sps", DatasetSize.SMALL),
    ("echo", DatasetSize.SMALL),
    ("ycsb", DatasetSize.SMALL),
    ("tpcc", DatasetSize.SMALL),
)


@dataclass(frozen=True)
class HeadlineResult:
    """Measured counterparts of the abstract's three numbers."""

    throughput_improvement_pct: float
    write_traffic_reduction_pct: float
    write_energy_reduction_pct: float
    cells: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "throughput_improvement_pct": self.throughput_improvement_pct,
            "write_traffic_reduction_pct": self.write_traffic_reduction_pct,
            "write_energy_reduction_pct": self.write_energy_reduction_pct,
        }

    def shape_holds(self) -> bool:
        """All three effects point the paper's way."""
        return (
            self.throughput_improvement_pct > 0
            and self.write_traffic_reduction_pct > 0
            and self.write_energy_reduction_pct > 0
        )


def headline_comparison(
    scale: Optional[ExperimentScale] = None,
    cells: Sequence[Tuple[str, DatasetSize]] = DEFAULT_CELLS,
    design: str = "MorLog-DP",
    baseline: str = "FWB-CRADE",
    jobs: Optional[int] = None,
    cache=None,
) -> HeadlineResult:
    """Measure the abstract's three deltas on this substrate.

    ``jobs``/``cache`` fan the (baseline, design) cell pairs out through
    the parallel engine; the ratios are identical either way.
    """
    from repro.experiments.parallel import resolve_cell, run_cells

    specs = [
        resolve_cell(name, workload, dataset, scale)
        for workload, dataset in cells
        for name in (baseline, design)
    ]
    flat, _report = run_cells(specs, jobs=1 if jobs is None else jobs, cache=cache)
    throughput_ratios = []
    traffic_ratios = []
    energy_ratios = []
    for i, (workload, dataset) in enumerate(cells):
        base = flat[2 * i]
        ours = flat[2 * i + 1]
        throughput_ratios.append(
            ours.throughput_tx_per_s / base.throughput_tx_per_s
        )
        traffic_ratios.append(ours.nvmm_writes / base.nvmm_writes)
        energy_ratios.append(
            ours.nvmm_write_energy_pj / base.nvmm_write_energy_pj
        )
    return HeadlineResult(
        throughput_improvement_pct=100.0 * (geometric_mean(throughput_ratios) - 1.0),
        write_traffic_reduction_pct=100.0 * (1.0 - geometric_mean(traffic_ratios)),
        write_energy_reduction_pct=100.0 * (1.0 - geometric_mean(energy_ratios)),
        cells=len(list(cells)),
    )
