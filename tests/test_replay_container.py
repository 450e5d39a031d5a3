"""Trace container robustness: versioning, digests, corruption, caching.

The ``.mltr`` container is the interface between a recording session and
every later replay, so it must fail loudly — typed errors, never garbage
results — on anything that is not exactly the bytes ``save_trace``
wrote, and its digest must feed the grid cache key so an edited trace
can never replay a stale cached result.
"""

import json
import struct

import numpy as np
import pytest

from repro.core.designs import make_system
from repro.experiments.cache import ResultCache, cell_key_fields
from repro.experiments.parallel import (
    resolve_cell,
    resolve_replay_cell,
    run_cells,
)
from repro.experiments.runner import ExperimentScale
from repro.replay import (
    StoreTrace,
    TraceDigestError,
    TraceError,
    TraceFormatError,
    TraceRecorder,
    TraceVersionError,
    load_trace,
    record_trace,
    replay_trace,
    save_trace,
)
from repro.replay.container import MAGIC, OP_STORE
from repro.workloads.base import DatasetSize, WorkloadParams
from tests.conftest import tiny_config

COLUMN_NAMES = (
    "setup_addr", "setup_val", "op_kind", "op_addr", "op_val",
    "tx_start", "tx_core", "pair_old", "pair_new",
)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One small recorded cell, saved to disk: (trace, path)."""
    trace, _result, _system = record_trace(
        "MorLog-SLDE",
        "hash",
        config=tiny_config(),
        params=WorkloadParams(initial_items=48, key_space=96, seed=11),
        n_transactions=10,
        n_threads=2,
    )
    path = tmp_path_factory.mktemp("traces") / "cell.mltr"
    save_trace(str(path), trace)
    return trace, str(path)


def rewrite(path, out, mutate_header=None, mutate_payload=None):
    """Re-pack a saved trace with the header and/or payload mutated."""
    with open(path, "rb") as fh:
        raw = fh.read()
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    body_start = len(MAGIC) + 4
    header = json.loads(raw[body_start:body_start + header_len])
    payload = bytearray(raw[body_start + header_len:])
    if mutate_header is not None:
        header = mutate_header(header) or header
    if mutate_payload is not None:
        mutate_payload(payload)
    encoded = json.dumps(header, sort_keys=True,
                         separators=(",", ":")).encode()
    with open(out, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(encoded)) + encoded +
                 bytes(payload))
    return str(out)


class TestRoundTrip:
    def test_save_load_round_trips(self, recorded):
        trace, path = recorded
        assert save_trace(path, trace) == trace.digest()
        loaded = load_trace(path)
        assert loaded.meta == trace.meta
        for name in COLUMN_NAMES:
            assert np.array_equal(getattr(loaded, name), getattr(trace, name))
        assert loaded.digest() == trace.digest()
        assert loaded.payload_sha256() == trace.payload_sha256()

    def test_digest_covers_meta_and_payload(self, recorded):
        trace, _path = recorded
        meta_edit = StoreTrace(
            meta=dict(trace.meta, note="edited"),
            **{name: getattr(trace, name) for name in COLUMN_NAMES},
        )
        # A metadata-only edit leaves the payload hash alone but must
        # still change the trace digest (and hence the cache key).
        assert meta_edit.payload_sha256() == trace.payload_sha256()
        assert meta_edit.digest() != trace.digest()

        columns = {name: getattr(trace, name) for name in COLUMN_NAMES}
        columns["op_val"] = columns["op_val"].copy()
        columns["op_val"][0] += 1
        content_edit = StoreTrace(meta=dict(trace.meta), **columns)
        assert content_edit.payload_sha256() != trace.payload_sha256()
        assert content_edit.digest() != trace.digest()


class TestLoadRejections:
    def test_bad_magic(self, recorded, tmp_path):
        _trace, path = recorded
        with open(path, "rb") as fh:
            raw = fh.read()
        bad = tmp_path / "bad.mltr"
        bad.write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(TraceFormatError, match="bad magic"):
            load_trace(str(bad))

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.mltr"
        empty.write_bytes(b"")
        with pytest.raises(TraceFormatError):
            load_trace(str(empty))

    def test_truncated_header(self, recorded, tmp_path):
        _trace, path = recorded
        with open(path, "rb") as fh:
            raw = fh.read()
        cut = tmp_path / "cut.mltr"
        cut.write_bytes(raw[:12])
        with pytest.raises(TraceFormatError, match="truncated header"):
            load_trace(str(cut))

    def test_corrupt_header_json(self, recorded, tmp_path):
        _trace, path = recorded
        with open(path, "rb") as fh:
            raw = fh.read()
        (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
        body = bytearray(raw)
        body[len(MAGIC) + 4] = ord("!")  # breaks the opening '{'
        bad = tmp_path / "json.mltr"
        bad.write_bytes(bytes(body))
        with pytest.raises(TraceFormatError, match="corrupt header"):
            load_trace(str(bad))
        assert header_len > 0

    def test_unknown_version(self, recorded, tmp_path):
        _trace, path = recorded
        bad = rewrite(path, tmp_path / "v99.mltr",
                      mutate_header=lambda h: dict(h, version=99))
        with pytest.raises(TraceVersionError, match="version 99"):
            load_trace(bad)
        # A version error is also a format error for coarse handlers.
        with pytest.raises(TraceFormatError):
            load_trace(bad)

    def test_column_set_mismatch(self, recorded, tmp_path):
        _trace, path = recorded

        def drop_column(header):
            header["columns"] = header["columns"][:-1]
            return header

        bad = rewrite(path, tmp_path / "cols.mltr", mutate_header=drop_column)
        with pytest.raises(TraceFormatError, match="column set"):
            load_trace(bad)

    def test_column_dtype_mismatch(self, recorded, tmp_path):
        _trace, path = recorded

        def retype(header):
            header["columns"][0]["dtype"] = "<u4"
            return header

        bad = rewrite(path, tmp_path / "dtype.mltr", mutate_header=retype)
        with pytest.raises(TraceFormatError, match="dtype"):
            load_trace(bad)

    def test_truncated_payload(self, recorded, tmp_path):
        _trace, path = recorded
        bad = rewrite(path, tmp_path / "short.mltr",
                      mutate_payload=lambda p: p.__delitem__(slice(-9, None)))
        with pytest.raises(TraceFormatError, match="truncated payload"):
            load_trace(bad)

    def test_trailing_bytes(self, recorded, tmp_path):
        _trace, path = recorded
        bad = rewrite(path, tmp_path / "long.mltr",
                      mutate_payload=lambda p: p.extend(b"\x00\x01\x02"))
        with pytest.raises(TraceFormatError, match="trailing bytes"):
            load_trace(bad)

    def test_corrupted_payload_fails_digest(self, recorded, tmp_path):
        _trace, path = recorded

        def flip(payload):
            payload[0] ^= 0xFF

        bad = rewrite(path, tmp_path / "flip.mltr", mutate_payload=flip)
        with pytest.raises(TraceDigestError, match="digest mismatch"):
            load_trace(bad)


class TestConstructionValidation:
    def empty_columns(self):
        return {name: [] for name in COLUMN_NAMES}

    def test_decreasing_tx_offsets_rejected(self):
        columns = self.empty_columns()
        columns.update(op_kind=[0, 0], op_addr=[0, 0], op_val=[0, 0],
                       tx_start=[2, 0], tx_core=[0, 0])
        with pytest.raises(TraceError, match="non-decreasing"):
            StoreTrace(meta={}, **columns)

    def test_out_of_range_tx_offset_rejected(self):
        columns = self.empty_columns()
        columns.update(tx_start=[5], tx_core=[0])
        with pytest.raises(TraceError, match="out of range"):
            StoreTrace(meta={}, **columns)

    def test_ops_before_first_transaction_rejected(self):
        # Replay dispatches transactions only, so these ops would vanish.
        columns = self.empty_columns()
        columns.update(op_kind=[0, 0], op_addr=[0, 0], op_val=[0, 0],
                       tx_start=[1], tx_core=[0])
        with pytest.raises(TraceError, match="outside any transaction"):
            StoreTrace(meta={}, **columns)

    def test_ops_without_transactions_rejected(self):
        columns = self.empty_columns()
        columns.update(op_kind=[0], op_addr=[0], op_val=[0])
        with pytest.raises(TraceError, match="outside any transaction"):
            StoreTrace(meta={}, **columns)

    def test_core_beyond_thread_count_rejected(self, tmp_path):
        # Replay reads only the first n_threads core clocks, so a 1-thread
        # trace relabelled to core 3 would report an elapsed time of 0.0.
        trace, _result, _system = record_trace(
            "MorLog-SLDE", "hash", config=tiny_config(),
            params=WorkloadParams(initial_items=48, key_space=96, seed=11),
            n_transactions=6, n_threads=1,
        )
        columns = {name: getattr(trace, name) for name in COLUMN_NAMES}
        for core in (1, 3):
            columns["tx_core"] = np.full_like(trace.tx_core, core)
            with pytest.raises(TraceError,
                               match="core %d, but the trace has 1" % core):
                StoreTrace(meta=dict(trace.meta), **columns)
        # The same columns read back from a file.
        trace.tx_core[:] = 3
        path = str(tmp_path / "relabelled.mltr")
        save_trace(path, trace)
        with pytest.raises(TraceError, match="core 3, but the trace has 1"):
            load_trace(path)

    def test_ragged_columns_rejected(self):
        columns = self.empty_columns()
        columns.update(op_kind=[0], op_addr=[0, 1], op_val=[0])
        with pytest.raises(TraceError, match="parallel"):
            StoreTrace(meta={}, **columns)
        columns = self.empty_columns()
        columns.update(pair_old=[1])
        with pytest.raises(TraceError, match="parallel"):
            StoreTrace(meta={}, **columns)

    def test_recorder_rejects_bad_compute_cycles(self):
        recorder = TraceRecorder()
        with pytest.raises(TraceError):
            recorder.on_compute(-1)
        with pytest.raises(TraceError):
            recorder.on_compute(1.5)
        recorder.on_compute(3)
        recorder.on_compute(4.0)  # integral floats are fine

    def test_replay_rejects_too_many_threads(self, recorded):
        trace, _path = recorded
        starved = StoreTrace(
            meta=dict(trace.meta, n_threads=99),
            **{name: getattr(trace, name) for name in COLUMN_NAMES},
        )
        system = make_system("MorLog-SLDE", tiny_config())
        with pytest.raises(TraceError, match="99 threads"):
            replay_trace(system, starved)


class TestEdgeShapes:
    def test_empty_trace_replays_to_nothing(self, tmp_path):
        empty = StoreTrace(meta={"n_threads": 1},
                           **{name: [] for name in COLUMN_NAMES})
        path = tmp_path / "empty.mltr"
        save_trace(str(path), empty)
        loaded = load_trace(str(path))
        assert loaded.n_transactions == 0 and loaded.n_ops == 0
        result = replay_trace(make_system("MorLog-SLDE", tiny_config()), loaded)
        assert result.transactions == 0
        assert result.elapsed_ns == 0.0

    def test_zero_thread_trace_fails_like_run(self):
        # Replay opens its run through System.start_run, so a header of
        # 0 threads fails as System.run(n_threads=0) does.
        empty = StoreTrace(meta={"n_threads": 0},
                           **{name: [] for name in COLUMN_NAMES})
        with pytest.raises(ValueError, match="n_threads must be >= 1, got 0"):
            replay_trace(make_system("MorLog-SLDE", tiny_config()), empty)

    def test_empty_transactions_replay(self, recorded):
        # Append two empty transactions (tx with zero ops) to a real
        # trace; they must replay as real begin/commit pairs.
        trace, _path = recorded
        n_ops = trace.n_ops
        columns = {name: getattr(trace, name) for name in COLUMN_NAMES}
        columns["tx_start"] = np.concatenate(
            [trace.tx_start, [n_ops, n_ops]]
        )
        columns["tx_core"] = np.concatenate([trace.tx_core, [0, 1]])
        padded = StoreTrace(meta=dict(trace.meta), **columns)
        lo, hi = padded.transaction_bounds(padded.n_transactions - 1)
        assert lo == hi == n_ops
        result = replay_trace(make_system("MorLog-SLDE", tiny_config()),
                              padded)
        assert result.transactions == trace.n_transactions + 2

    def test_single_word_transaction(self, recorded):
        trace, _path = recorded
        stores = trace.op_addr[trace.op_kind == OP_STORE]
        addr = int(stores[0])
        single = StoreTrace(
            meta={"n_threads": 1},
            setup_addr=trace.setup_addr,
            setup_val=trace.setup_val,
            op_kind=[OP_STORE],
            op_addr=[addr],
            op_val=[0xDEAD_BEEF],
            tx_start=[0],
            tx_core=[0],
            pair_old=[],
            pair_new=[],
        )
        system = make_system("MorLog-SLDE", tiny_config())
        result = replay_trace(system, single)
        assert result.transactions == 1
        assert system.persistent_word(addr) == 0xDEAD_BEEF


class TestCacheKeying:
    def test_key_fields_take_trace_digest_only_when_set(self):
        base = cell_key_fields("d", "w", "SMALL", {}, {}, 1, 1, 1.0)
        assert "trace_digest" not in base
        keyed = cell_key_fields("d", "w", "SMALL", {}, {}, 1, 1, 1.0,
                                trace_digest="abc")
        assert keyed["trace_digest"] == "abc"
        assert {k: v for k, v in keyed.items() if k != "trace_digest"} == base

    def test_replay_cell_keys_on_digest(self, recorded, tmp_path):
        trace, path = recorded
        cfg = tiny_config()
        spec = resolve_replay_cell("MorLog-SLDE", path, config=cfg)
        assert spec.trace_digest == trace.digest()
        assert spec.key_fields()["trace_digest"] == trace.digest()
        assert spec.workload == "hash"
        assert spec.n_transactions == trace.n_transactions
        assert spec.n_threads == trace.n_threads

        # Same bytes -> same key, even from another path.
        copy = tmp_path / "copy.mltr"
        save_trace(str(copy), trace)
        assert resolve_replay_cell(
            "MorLog-SLDE", str(copy), config=cfg
        ).key() == spec.key()

        # Any edit (here: metadata) -> different digest -> cache miss.
        edited = StoreTrace(
            meta=dict(trace.meta, note="edited"),
            **{name: getattr(trace, name) for name in COLUMN_NAMES},
        )
        edited_path = tmp_path / "edited.mltr"
        save_trace(str(edited_path), edited)
        assert resolve_replay_cell(
            "MorLog-SLDE", str(edited_path), config=cfg
        ).key() != spec.key()

        # Replay cells never collide with direct-run cells.
        direct = resolve_cell(
            "MorLog-SLDE", "hash", DatasetSize.SMALL,
            ExperimentScale(micro_transactions=trace.n_transactions,
                            micro_threads=trace.n_threads),
            config=cfg,
        )
        assert direct.key() != spec.key()

    def test_replay_cells_run_and_cache_through_the_engine(
        self, recorded, tmp_path
    ):
        trace, path = recorded
        spec = resolve_replay_cell("MorLog-SLDE", path, config=tiny_config())
        cache = ResultCache(cache_dir=str(tmp_path / "grid"))

        results, report = run_cells([spec], jobs=1, cache=cache)
        assert report.simulated_cells == 1 and report.hits == 0
        expected = replay_trace(make_system("MorLog-SLDE", tiny_config()),
                                trace)
        assert results[0].transactions == expected.transactions
        assert results[0].elapsed_ns == expected.elapsed_ns
        assert results[0].stats == expected.stats

        # Warm pass: served from cache, no simulation.
        again, report = run_cells([spec], jobs=1, cache=cache)
        assert report.hits == 1 and report.simulated_cells == 0
        assert again[0].stats == expected.stats

        # Rewriting the trace at the same path changes the digest, so
        # the stale entry cannot be replayed.
        edited = StoreTrace(
            meta=dict(trace.meta, note="edited"),
            **{name: getattr(trace, name) for name in COLUMN_NAMES},
        )
        save_trace(path, edited)
        respec = resolve_replay_cell("MorLog-SLDE", path,
                                     config=tiny_config())
        assert respec.key() != spec.key()
        _results, report = run_cells([respec], jobs=1, cache=cache)
        assert report.hits == 0 and report.simulated_cells == 1
        # Restore the shared fixture file for other tests.
        save_trace(path, trace)

    def test_traced_replay_cell_writes_its_chrome_trace(
        self, recorded, tmp_path
    ):
        """Replay cells run on the one cell runner, so ``trace_dir``
        traces them like direct cells (it used to report no artifact)."""
        _trace, path = recorded
        spec = resolve_replay_cell("MorLog-SLDE", path, config=tiny_config())
        trace_dir = tmp_path / "chrome"
        traced, report = run_cells([spec], jobs=1, trace_dir=str(trace_dir))
        artifact = trace_dir / ("%s.trace.json" % spec.key())
        assert report.cells[0].trace_path == str(artifact)
        with open(artifact) as handle:
            assert json.load(handle)["traceEvents"]
        # Tracing is inert: the traced replay scores like a plain one.
        plain, _report = run_cells([spec], jobs=1)
        assert traced[0].stats == plain[0].stats
        assert traced[0].elapsed_ns == plain[0].elapsed_ns
