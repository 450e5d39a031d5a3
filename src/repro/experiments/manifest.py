"""Shard manifests: the on-disk ground truth of a mega-grid sweep.

A 10k+-cell mega-grid sweep (designs × workloads × configs) runs
across long wall-clock windows and must survive crashes, so the full
work list is written to disk *before* execution as a manifest of
content-addressed cell keys: every cell's serialized
:class:`~repro.experiments.parallel.CellSpec` next to the SHA-256 cache
key it resolves to, plus a deterministic shard assignment derived from
the key itself.  Resuming a partially-run sweep is then just "load the
manifest, re-run whatever the result cache does not already hold" — the
cache key doubles as the exactly-once token, so a cell that completed
before the crash is never simulated again.

Manifests are plain JSON (atomic write via temp file + ``os.replace``)
and self-validating on load: a version mismatch raises
:class:`ManifestVersionError`, structural damage raises
:class:`ManifestError`, and every cell's spec is re-hashed against its
recorded key so a hand-edited spec can never replay a stale result
under the old key.
"""

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import SimulationError
from repro.experiments.parallel import CellSpec, spec_from_dict, spec_to_dict

#: Bump when the manifest schema changes; old manifests then fail loudly
#: instead of misparsing.  Version 2: a spec's encoding config no
#: longer carries the codec-memo switch and its entry bound.
MANIFEST_VERSION = 2


class ManifestError(SimulationError):
    """A manifest file is structurally invalid or internally inconsistent."""


class ManifestVersionError(ManifestError):
    """A manifest was written by an incompatible schema version."""


def shard_of(key: str, shards: int) -> int:
    """Deterministic shard for a cell key: content-addressed, so the
    assignment survives resume and is identical on every host."""
    return int(key[:8], 16) % max(shards, 1)


@dataclass
class ShardManifest:
    """The complete work list of one sweep, written before execution."""

    cells: List[Dict[str, Any]] = field(default_factory=list)
    shards: int = 1
    meta: Dict[str, Any] = field(default_factory=dict)
    version: int = MANIFEST_VERSION
    created_unix: float = 0.0

    def keys(self) -> List[str]:
        return [cell["key"] for cell in self.cells]

    def specs(self) -> List[CellSpec]:
        return [spec_from_dict(cell["spec"]) for cell in self.cells]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "created_unix": self.created_unix,
            "shards": self.shards,
            "meta": self.meta,
            "cells": self.cells,
        }


def build_manifest(
    specs: Sequence[CellSpec],
    shards: int = 1,
    meta: Optional[Dict[str, Any]] = None,
) -> ShardManifest:
    """Resolve specs into a manifest (keys, shard assignment, metadata).

    Duplicate specs keep their positions — execution dedupes in flight —
    so the manifest always mirrors the caller's grid shape exactly.
    """
    shards = max(int(shards), 1)
    cells = []
    for spec in specs:
        key = spec.key()
        cells.append({
            "key": key,
            "shard": shard_of(key, shards),
            "spec": spec_to_dict(spec),
        })
    return ShardManifest(
        cells=cells,
        shards=shards,
        meta=dict(meta or {}),
        created_unix=time.time(),
    )


def write_manifest(path: str, manifest: ShardManifest) -> str:
    """Atomically persist the manifest (temp file + ``os.replace``)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(prefix=".manifest-", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(manifest.to_dict(), handle, indent=1, sort_keys=True)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def load_manifest(path: str, verify_keys: bool = True) -> ShardManifest:
    """Load and validate a manifest written by :func:`write_manifest`.

    ``verify_keys`` re-hashes every cell's spec and compares it against
    the recorded key (the content-addressed integrity check); pass False
    only when scanning very large manifests for display.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as error:
        raise ManifestError("cannot read manifest %s: %s" % (path, error))
    except ValueError as error:
        raise ManifestError("manifest %s is not valid JSON: %s" % (path, error))
    if not isinstance(data, dict):
        raise ManifestError("manifest %s: expected a JSON object" % path)
    version = data.get("version")
    if version != MANIFEST_VERSION:
        raise ManifestVersionError(
            "manifest %s has version %r, this build reads %d"
            % (path, version, MANIFEST_VERSION)
        )
    cells = data.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ManifestError("manifest %s: missing or empty 'cells'" % path)
    shards = data.get("shards")
    if not isinstance(shards, int) or shards < 1:
        raise ManifestError("manifest %s: invalid 'shards' %r" % (path, shards))
    for index, cell in enumerate(cells):
        if not isinstance(cell, dict) or "key" not in cell or "spec" not in cell:
            raise ManifestError(
                "manifest %s: cell #%d lacks key/spec" % (path, index)
            )
        if verify_keys:
            try:
                recomputed = spec_from_dict(cell["spec"]).key()
            except (KeyError, ValueError, TypeError) as error:
                raise ManifestError(
                    "manifest %s: cell #%d spec does not parse: %s"
                    % (path, index, error)
                )
            if recomputed != cell["key"]:
                raise ManifestError(
                    "manifest %s: cell #%d key %s does not match its spec"
                    " (recomputed %s) — manifest edited or stale?"
                    % (path, index, cell["key"][:12], recomputed[:12])
                )
    return ShardManifest(
        cells=cells,
        shards=shards,
        meta=data.get("meta") or {},
        version=version,
        created_unix=float(data.get("created_unix") or 0.0),
    )


def manifest_status(manifest: ShardManifest, cache) -> Dict[str, List[str]]:
    """Split the manifest's unique keys into done (cached) vs missing.

    Uses the cache's existence check only — resume itself re-reads each
    entry through the decoding path, so a torn entry still re-runs.
    """
    done: List[str] = []
    missing: List[str] = []
    seen = set()
    for key in manifest.keys():
        if key in seen:
            continue
        seen.add(key)
        if cache is not None and cache.has(key):
            done.append(key)
        else:
            missing.append(key)
    return {"done": done, "missing": missing}
