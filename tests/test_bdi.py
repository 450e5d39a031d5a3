"""BDI compression tests (repro.encoding.bdi)."""

import pytest
from hypothesis import given, strategies as st

from repro.encoding.bdi import BdiCodec, bdi_compress, bdi_decompress
from repro.encoding.slde import LogWriteContext, SldeCodec
from repro.encoding import make_codec

words = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestSchemes:
    def test_zero_word(self):
        assert bdi_compress(0) == (0, 0, 0)

    def test_repeated_lane(self):
        tag, payload, bits = bdi_compress(0xABCD_ABCD_ABCD_ABCD)
        assert tag == 1 and payload == 0xABCD and bits == 16

    def test_base_plus_small_deltas(self):
        # Four 16-bit lanes within +-127 of each other.
        word = 0x1005_1003_0FFF_1000
        tag, _payload, bits = bdi_compress(word)
        assert tag == 3 and bits == 48

    def test_two_lane_scheme(self):
        # Two 32-bit lanes, 16-bit delta apart.
        word = (0x1000_2345 << 32) | 0x1000_1234
        tag, _payload, bits = bdi_compress(word)
        assert tag == 4 and bits == 64

    def test_incompressible(self):
        tag, payload, bits = bdi_compress(0x0123_4567_89AB_CDEF)
        assert tag == 5 and bits == 64

    def test_decompress_bad_tag(self):
        with pytest.raises(ValueError):
            bdi_decompress(9, 0)


class TestRoundtrip:
    @given(words)
    def test_compress_decompress(self, w):
        tag, payload, _bits = bdi_compress(w)
        assert bdi_decompress(tag, payload) == w

    @given(words)
    def test_codec_roundtrip(self, w):
        codec = BdiCodec()
        assert codec.decode(codec.encode(w)) == w

    @given(st.integers(0, 0xFFFF), st.lists(st.integers(-127, 127), min_size=3, max_size=3))
    def test_delta_words_compress(self, base, deltas):
        lanes = [base] + [(base + d) & 0xFFFF for d in deltas]
        word = 0
        for i, lane in enumerate(lanes):
            word |= lane << (16 * i)
        tag, payload, _bits = bdi_compress(word)
        assert tag in (0, 1, 3)
        assert bdi_decompress(tag, payload) == word


class TestAsSldeAlternative:
    def test_factory_names(self):
        assert type(make_codec("bdi")).__name__ == "BdiCodec"
        slde = make_codec("slde-bdi")
        assert type(slde.alternative).__name__ == "BdiCodec"

    @given(words, words)
    def test_slde_with_bdi_roundtrips(self, old, new):
        from repro.common.bitops import dirty_byte_mask

        slde = make_codec("slde-bdi")
        mask = dirty_byte_mask(old, new)
        encoded = slde.encode_log(new, LogWriteContext(old_word=old, dirty_mask=mask))
        if encoded.silent:
            assert old == new
        else:
            assert slde.decode(encoded, old) == new

    def test_system_runs_with_bdi_alternative(self):
        from dataclasses import replace

        from repro.core.system import System
        from repro.logging_hw.morlog import MorLogLogger
        from repro.workloads.base import WorkloadParams, make_workload
        from tests.conftest import tiny_config

        config = tiny_config()
        config = config.with_changes(
            encoding=replace(config.encoding, log_codec="slde-bdi", data_codec="bdi")
        )
        system = System(config, MorLogLogger, design_name="MorLog-SLDE-BDI")
        workload = make_workload(
            "hash", WorkloadParams(initial_items=24, key_space=48)
        )
        result = system.run(workload, 40, n_threads=2)
        assert result.transactions == 40
        state = system.recover(verify_decode=True)
        assert len(state.persisted_txids) == 40

    def test_slde_bdi_keeps_slde_dirty_flags(self):
        """The BDI alternative changes SLDE's codec, not its dirty flags:
        MorLog skips the same silent stores under either log codec."""
        from dataclasses import replace

        from repro.core.system import System
        from repro.logging_hw.morlog import MorLogLogger
        from repro.workloads.base import WorkloadParams, make_workload
        from tests.conftest import tiny_config

        def run(log_codec):
            config = tiny_config()
            config = config.with_changes(
                encoding=replace(config.encoding, log_codec=log_codec,
                                 data_codec="bdi")
            )
            system = System(config, MorLogLogger, design_name="MorLog")
            workload = make_workload(
                "hash", WorkloadParams(initial_items=24, key_space=48)
            )
            return system, system.run(workload, 40, n_threads=2)

        _slde_system, slde = run("slde")
        bdi_system, bdi = run("slde-bdi")
        assert slde.stats["silent_stores"] > 0
        assert bdi.stats.get("silent_stores") == slde.stats["silent_stores"]
        state = bdi_system.recover(verify_decode=True)
        assert len(state.persisted_txids) == 40
