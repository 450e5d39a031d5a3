"""Typed, schema-versioned benchmark records.

Every benchmark run produces :class:`BenchRecord` values — one per
(benchmark, metric) — that are persisted as JSON next to the
human-readable ``.txt`` tables and rolled up into a repo-root
``BENCH_<n>.json`` trajectory file per run (see :mod:`repro.bench.store`).
A record carries everything a later comparison needs to decide whether
two measurements are comparable and which way "better" points:

- the benchmark id and metric name/value/unit;
- the *direction of goodness* (``higher`` / ``lower`` / ``info`` — info
  metrics are context and never gate);
- a relative tolerance band chosen by the emitter (wall-clock metrics
  get wide bands or ``info``; simulated metrics are deterministic and
  get tight ones);
- a config digest over the canonical :mod:`repro.experiments.serialize`
  dict of the experiment configuration plus ``REPRO_SCALE``, so records
  measured under different configurations are never compared;
- host metadata and an optional ``metrics_snapshot`` attachment.

Records round-trip through :meth:`BenchRecord.to_dict` /
:meth:`BenchRecord.from_dict`; the canonical JSON form (sorted keys) is
what the store writes.
"""

import os
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

#: Bump when the record dict shape changes incompatibly.
RECORD_SCHEMA_VERSION = 1

#: Directions of goodness.  ``info`` metrics are recorded for context
#: (wall-clock timings, counts) and are exempt from regression gating.
HIGHER = "higher"
LOWER = "lower"
INFO = "info"
DIRECTIONS = (HIGHER, LOWER, INFO)

#: Default relative tolerance band for gated metrics.  The simulator is
#: deterministic, but reduced-scale runs wobble a little when transaction
#: counts round differently, so the default is loose enough to absorb
#: that while catching real regressions.
DEFAULT_TOLERANCE = 0.05


def host_metadata() -> Dict[str, Any]:
    """Stable description of the measuring host (canonical key order)."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "machine": platform.machine(),
        "platform": platform.system(),
        "python": platform.python_version(),
    }


def repro_scale() -> float:
    """The effective ``REPRO_SCALE`` (malformed values behave like 1.0)."""
    try:
        scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    except ValueError:
        return 1.0
    return scale if scale > 0 else 1.0


def default_config_digest() -> str:
    """Digest of the default experiment configuration + ``REPRO_SCALE``."""
    from repro.experiments.runner import default_config
    from repro.experiments.serialize import config_to_dict, stable_hash

    return stable_hash(
        {"config": config_to_dict(default_config()), "scale": repro_scale()}
    )


@dataclass(frozen=True)
class BenchRecord:
    """One measured metric from one benchmark run."""

    benchmark: str
    metric: str
    value: float
    unit: str = ""
    direction: str = INFO
    tolerance: Optional[float] = None
    config_digest: str = ""
    scale: float = 1.0
    unix_time: float = 0.0
    host: Dict[str, Any] = field(default_factory=dict)
    attachments: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = RECORD_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.benchmark or not self.metric:
            raise ValueError("benchmark and metric ids are required")
        if self.direction not in DIRECTIONS:
            raise ValueError(
                "direction must be one of %s, got %r"
                % (", ".join(DIRECTIONS), self.direction)
            )
        if self.tolerance is not None and self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")

    @property
    def gates(self) -> bool:
        """True when this metric participates in regression gating."""
        return self.direction in (HIGHER, LOWER)

    @property
    def key(self) -> str:
        """The identity a comparison pairs records on."""
        return "%s/%s" % (self.benchmark, self.metric)

    def effective_tolerance(self) -> float:
        return DEFAULT_TOLERANCE if self.tolerance is None else self.tolerance

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema_version": self.schema_version,
            "benchmark": self.benchmark,
            "metric": self.metric,
            "value": self.value,
            "unit": self.unit,
            "direction": self.direction,
            "tolerance": self.tolerance,
            "config_digest": self.config_digest,
            "scale": self.scale,
            "unix_time": self.unix_time,
            "host": dict(sorted(self.host.items())),
        }
        if self.attachments:
            out["attachments"] = self.attachments
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchRecord":
        return cls(
            benchmark=str(data["benchmark"]),
            metric=str(data["metric"]),
            value=float(data["value"]),
            unit=str(data.get("unit", "")),
            direction=str(data.get("direction", INFO)),
            tolerance=(
                None if data.get("tolerance") is None
                else float(data["tolerance"])
            ),
            config_digest=str(data.get("config_digest", "")),
            scale=float(data.get("scale", 1.0)),
            unix_time=float(data.get("unix_time", 0.0)),
            host=dict(data.get("host", {})),
            attachments=dict(data.get("attachments", {})),
            schema_version=int(data.get("schema_version", RECORD_SCHEMA_VERSION)),
        )


def record(
    benchmark: str,
    metric: str,
    value: float,
    unit: str = "",
    direction: str = INFO,
    tolerance: Optional[float] = None,
    attachments: Optional[Dict[str, Any]] = None,
    config_digest: Optional[str] = None,
) -> BenchRecord:
    """Build a :class:`BenchRecord` with host/digest/scale filled in.

    This is the constructor benchmark files use: one line per metric,
    everything environmental derived here.
    """
    return BenchRecord(
        benchmark=benchmark,
        metric=metric,
        value=float(value),
        unit=unit,
        direction=direction,
        tolerance=tolerance,
        config_digest=(
            default_config_digest() if config_digest is None else config_digest
        ),
        scale=repro_scale(),
        unix_time=time.time(),
        host=host_metadata(),
        attachments=dict(attachments or {}),
    )
