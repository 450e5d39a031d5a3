"""The columnar trace container: versioned, digest-addressed, compact.

A :class:`StoreTrace` holds one recorded run as parallel numpy columns:

- ``setup_addr`` / ``setup_val`` — the untimed setup-phase stores, in
  order, so a replayer can rebuild the pre-run memory image without
  executing workload setup code;
- ``op_kind`` / ``op_addr`` / ``op_val`` — the transactional op stream
  (loads, stores, non-temporal stores, compute delays) exactly as the
  transaction bodies issued it;
- ``tx_start`` / ``tx_core`` — per-transaction offsets into the op
  stream plus the core each transaction was dispatched on, preserving
  the recording run's interleaving;
- ``pair_old`` / ``pair_new`` — the old/new word of every transactional
  store to persistent memory, which the motivation statistics
  (:mod:`repro.analysis.motivation`: dirty masks, Table-II patterns)
  read.

On disk the container is ``MLTR`` magic + a canonical JSON header
(version, provenance metadata, column specs, payload SHA-256) + the raw
little-endian column bytes.  :func:`load_trace` rejects wrong magic,
unknown versions, truncated or corrupt files, and payload-digest
mismatches with typed errors.  :meth:`StoreTrace.digest` is a canonical
content hash over header and payload — the grid result cache keys replay
cells on it, so editing a trace in any way misses the cache.
"""

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

MAGIC = b"MLTR"
TRACE_VERSION = 1

#: Op kinds in the ``op_kind`` column.
OP_LOAD = 0
OP_STORE = 1
OP_STORE_NT = 2
OP_COMPUTE = 3

#: Column order and dtypes; the on-disk payload is these, concatenated.
COLUMNS = (
    ("setup_addr", "<u8"),
    ("setup_val", "<u8"),
    ("op_kind", "u1"),
    ("op_addr", "<u8"),
    ("op_val", "<u8"),
    ("tx_start", "<u8"),
    ("tx_core", "<u4"),
    ("pair_old", "<u8"),
    ("pair_new", "<u8"),
)


class TraceError(ValueError):
    """Base class for trace container errors."""


class TraceFormatError(TraceError):
    """The file is not a trace container, or is truncated/corrupt."""


class TraceVersionError(TraceFormatError):
    """The container's format version is not the one this code reads."""


class TraceDigestError(TraceError):
    """The payload does not hash to the digest the header promises."""


def _canonical_json(data: Dict[str, Any]) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class StoreTrace:
    """One recorded store stream plus its provenance metadata."""

    meta: Dict[str, Any]
    setup_addr: "np.ndarray"
    setup_val: "np.ndarray"
    op_kind: "np.ndarray"
    op_addr: "np.ndarray"
    op_val: "np.ndarray"
    tx_start: "np.ndarray"
    tx_core: "np.ndarray"
    pair_old: "np.ndarray" = field(default=None)
    pair_new: "np.ndarray" = field(default=None)

    def __post_init__(self) -> None:
        for name, dtype in COLUMNS:
            column = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            setattr(self, name, column)
        if self.setup_addr.shape != self.setup_val.shape:
            raise TraceError("setup columns must be parallel")
        if not (self.op_kind.shape == self.op_addr.shape == self.op_val.shape):
            raise TraceError("op columns must be parallel")
        if self.tx_start.shape != self.tx_core.shape:
            raise TraceError("transaction columns must be parallel")
        if self.pair_old.shape != self.pair_new.shape:
            raise TraceError("pair columns must be parallel")
        starts = self.tx_start
        if starts.size:
            if (np.diff(starts.astype(np.int64)) < 0).any():
                raise TraceError("transaction offsets must be non-decreasing")
            if int(starts[-1]) > self.op_kind.size:
                raise TraceError("transaction offsets out of range")
            if int(starts[0]) != 0:
                raise TraceError(
                    "ops outside any transaction: the first transaction"
                    " starts at op %d" % int(starts[0])
                )
            core = int(self.tx_core.max())
            if core >= self.n_threads:
                raise TraceError(
                    "a transaction ran on core %d, but the trace has %d"
                    " threads" % (core, self.n_threads)
                )
        elif self.op_kind.size:
            raise TraceError(
                "ops outside any transaction: %d ops, no transactions"
                % self.op_kind.size
            )

    # -- shape ----------------------------------------------------------

    @property
    def n_transactions(self) -> int:
        return int(self.tx_start.size)

    @property
    def n_ops(self) -> int:
        return int(self.op_kind.size)

    @property
    def n_threads(self) -> int:
        return int(self.meta.get("n_threads", 1))

    def transaction_bounds(self, index: int):
        """The [lo, hi) op-stream slice of transaction ``index``."""
        lo = int(self.tx_start[index])
        if index + 1 < self.n_transactions:
            hi = int(self.tx_start[index + 1])
        else:
            hi = self.n_ops
        return lo, hi

    # -- hashing --------------------------------------------------------

    def _payload_bytes(self):
        for name, _dtype in COLUMNS:
            yield getattr(self, name).tobytes()

    def payload_sha256(self) -> str:
        digest = hashlib.sha256()
        for chunk in self._payload_bytes():
            digest.update(chunk)
        return digest.hexdigest()

    def _header(self) -> Dict[str, Any]:
        return {
            "version": TRACE_VERSION,
            "meta": self.meta,
            "columns": [
                {"name": name, "dtype": dtype, "length": int(getattr(self, name).size)}
                for name, dtype in COLUMNS
            ],
            "payload_sha256": self.payload_sha256(),
        }

    def digest(self) -> str:
        """Canonical content hash of the whole trace (header + payload).

        This is what cache keys carry: any change to the recorded
        stream, its metadata or the container version changes it.
        """
        digest = hashlib.sha256()
        digest.update(_canonical_json(self._header()))
        for chunk in self._payload_bytes():
            digest.update(chunk)
        return digest.hexdigest()


def save_trace(path: str, trace: StoreTrace) -> str:
    """Serialize ``trace`` to ``path``; returns the trace digest."""
    header = _canonical_json(trace._header())
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<I", len(header)))
        handle.write(header)
        for chunk in trace._payload_bytes():
            handle.write(chunk)
    return trace.digest()


def load_trace(path: str) -> StoreTrace:
    """Read a trace container back, validating format, version, digest."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < len(MAGIC) + 4 or raw[: len(MAGIC)] != MAGIC:
        raise TraceFormatError("%s: not a trace container (bad magic)" % path)
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    header_end = len(MAGIC) + 4 + header_len
    if header_end > len(raw):
        raise TraceFormatError("%s: truncated header" % path)
    try:
        header = json.loads(raw[len(MAGIC) + 4 : header_end])
    except ValueError:
        raise TraceFormatError("%s: corrupt header JSON" % path)
    version = header.get("version")
    if version != TRACE_VERSION:
        raise TraceVersionError(
            "%s: trace format version %r, this reader wants %d"
            % (path, version, TRACE_VERSION)
        )
    specs = {spec["name"]: spec for spec in header.get("columns", ())}
    if set(specs) != {name for name, _ in COLUMNS}:
        raise TraceFormatError("%s: column set mismatch" % path)

    offset = header_end
    columns: Dict[str, "np.ndarray"] = {}
    for name, dtype in COLUMNS:
        spec = specs[name]
        if spec.get("dtype") != dtype:
            raise TraceFormatError(
                "%s: column %s has dtype %r, expected %r"
                % (path, name, spec.get("dtype"), dtype)
            )
        length = int(spec["length"])
        nbytes = length * np.dtype(dtype).itemsize
        if offset + nbytes > len(raw):
            raise TraceFormatError("%s: truncated payload (column %s)" % (path, name))
        columns[name] = np.frombuffer(raw, dtype=dtype, count=length, offset=offset).copy()
        offset += nbytes
    if offset != len(raw):
        raise TraceFormatError("%s: %d trailing bytes" % (path, len(raw) - offset))

    trace = StoreTrace(meta=header.get("meta", {}), **columns)
    expected = header.get("payload_sha256")
    actual = trace.payload_sha256()
    if expected != actual:
        raise TraceDigestError(
            "%s: payload digest mismatch (header %s, actual %s)"
            % (path, expected, actual)
        )
    return trace
