"""Stable serialization for experiment inputs and outputs.

The parallel grid engine (:mod:`repro.experiments.parallel`) ships cells
to worker processes and keys an on-disk result cache by their inputs, so
:class:`SystemConfig`, :class:`WorkloadParams` and :class:`RunResult` all
need a round-trippable dict form plus a *canonical* JSON encoding whose
bytes are stable across processes and sessions (sorted keys, no
whitespace, enum names instead of values).  Hashes of that encoding are
the cache keys — see :func:`canonical_json` and :func:`stable_hash`.
"""

import hashlib
import json
from dataclasses import asdict, fields
from typing import Any, Dict

from repro.common.config import (
    CacheConfig,
    CacheLevelConfig,
    CoreConfig,
    EncodingConfig,
    LoggingConfig,
    NVMConfig,
    SystemConfig,
)
from repro.core.system import RunResult
from repro.workloads.base import DatasetSize, WorkloadParams


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, minimal separators.

    Two equal dicts always produce byte-identical strings, which makes
    the string's hash usable as a content address.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# SystemConfig
# ---------------------------------------------------------------------------


def config_to_dict(config: SystemConfig) -> Dict[str, Any]:
    """Nested plain-dict form of a :class:`SystemConfig` (JSON-safe)."""
    return asdict(config)


def config_from_dict(data: Dict[str, Any]) -> SystemConfig:
    caches = data["caches"]
    return SystemConfig(
        cores=CoreConfig(**data["cores"]),
        caches=CacheConfig(
            l1=CacheLevelConfig(**caches["l1"]),
            l2=CacheLevelConfig(**caches["l2"]),
            l3=CacheLevelConfig(**caches["l3"]),
        ),
        nvm=NVMConfig(**data["nvm"]),
        logging=LoggingConfig(**data["logging"]),
        encoding=EncodingConfig(**data["encoding"]),
        nvmm_base=data["nvmm_base"],
        seed=data["seed"],
    )


# ---------------------------------------------------------------------------
# WorkloadParams
# ---------------------------------------------------------------------------


def params_to_dict(params: WorkloadParams) -> Dict[str, Any]:
    """Dict form of :class:`WorkloadParams`; the dataset enum becomes its
    name so the encoding stays stable if the enum's value ever changes."""
    out = {f.name: getattr(params, f.name) for f in fields(params)}
    out["dataset"] = params.dataset.name
    return out


def params_from_dict(data: Dict[str, Any]) -> WorkloadParams:
    data = dict(data)
    data["dataset"] = DatasetSize[data["dataset"]]
    return WorkloadParams(**data)


# ---------------------------------------------------------------------------
# RunResult
# ---------------------------------------------------------------------------


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    return {
        "transactions": result.transactions,
        "elapsed_ns": result.elapsed_ns,
        "stats": dict(result.stats),
    }


def run_result_from_dict(data: Dict[str, Any]) -> RunResult:
    return RunResult(
        transactions=int(data["transactions"]),
        elapsed_ns=float(data["elapsed_ns"]),
        stats={str(k): v for k, v in data["stats"].items()},
    )
