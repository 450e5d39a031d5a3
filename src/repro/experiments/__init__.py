"""Experiment harness: one entry point per paper table and figure.

Every public function in :mod:`repro.experiments.figures` regenerates one
evaluation artifact (Figure 3/5/12-16, Table I/II/V/VI, and the section
VI-E sensitivity study) and returns its data in a structured form; the
``benchmarks/`` tree wraps each one in a pytest-benchmark case that also
prints the paper-shaped table.

Every cell has one description and one execution path: arguments
resolve into a :class:`CellSpec` through ``resolve_cell``
(:mod:`repro.experiments.parallel`), which ``run_cell`` runs.  Lists of
cells run through ``run_cells`` on the sweep engine in
:mod:`repro.experiments.megagrid` — inline at ``jobs=1``, a process pool
otherwise, with dedupe, streaming writes to the content-addressed result
cache (:mod:`repro.experiments.cache`), fail-soft cells and resumable
shard manifests (:mod:`repro.experiments.manifest`).  ``run_design`` and
``run_grid`` (:mod:`repro.experiments.runner`) are thin wrappers over
the same path.  Figure artifacts (Vega-Lite + CSV) come from
:mod:`repro.experiments.vega`.
"""

from repro.experiments.runner import ExperimentScale, run_design, run_grid
from repro.experiments.headline import HeadlineResult, headline_comparison
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.parallel import (
    CellSpec,
    GridReport,
    default_jobs,
    resolve_cell,
    run_cell,
    run_cells,
)
from repro.experiments.manifest import (
    ShardManifest,
    build_manifest,
    load_manifest,
    manifest_status,
    write_manifest,
)
from repro.experiments.megagrid import (
    CellFailure,
    GridAssemblyError,
    MegaGridOutcome,
    run_megagrid,
)
from repro.experiments.vega import (
    discover_figures,
    grid_vega_spec,
    validate_vega_lite,
    write_figure,
)
from repro.experiments import figures

__all__ = [
    "ExperimentScale",
    "run_design",
    "run_grid",
    "figures",
    "HeadlineResult",
    "headline_comparison",
    "ResultCache",
    "default_cache_dir",
    "CellSpec",
    "GridReport",
    "default_jobs",
    "resolve_cell",
    "run_cell",
    "run_cells",
    "ShardManifest",
    "build_manifest",
    "load_manifest",
    "manifest_status",
    "write_manifest",
    "CellFailure",
    "GridAssemblyError",
    "MegaGridOutcome",
    "run_megagrid",
    "discover_figures",
    "grid_vega_spec",
    "validate_vega_lite",
    "write_figure",
]
