"""Analysis-layer tests: stats helpers, overheads, report rendering."""

import pytest

from repro.analysis.overhead import morphable_logging_overhead, slde_overhead
from repro.analysis.report import format_normalized, format_table
from repro.common.config import SystemConfig
from repro.common.stats import Histogram, StatGroup, geometric_mean, normalize


class TestStatGroup:
    def test_add_and_get(self):
        stats = StatGroup("t")
        stats.add("x")
        stats.add("x", 2)
        assert stats.get("x") == 3

    def test_merge(self):
        a, b = StatGroup("a"), StatGroup("b")
        a.add("x", 1)
        b.add("x", 2)
        b.add("y", 5)
        a.merge(b)
        assert a.get("x") == 3 and a.get("y") == 5

    def test_missing_key_default(self):
        assert StatGroup("t").get("nope", 7.0) == 7.0


class TestHistogram:
    def test_bucket_assignment(self):
        hist = Histogram()
        for value, label in ((0, "0-1"), (3, "2-3"), (500, ">=128")):
            hist.observe(value)
        counts = hist.counts()
        assert counts["0-1"] == 1 and counts["2-3"] == 1 and counts[">=128"] == 1

    def test_proportions_sum_to_one(self):
        hist = Histogram()
        for v in range(200):
            hist.observe(v)
        assert sum(hist.proportions().values()) == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Histogram().observe(-1)


class TestDerivedStats:
    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1, 0])

    def test_normalize(self):
        out = normalize({"a": 2.0, "b": 4.0}, "a")
        assert out == {"a": 1.0, "b": 2.0}


class TestOverheads:
    def test_table1_values_match_paper(self):
        """The published Table I numbers for the default configuration."""
        config = SystemConfig()
        from dataclasses import replace

        dp = config.with_changes(
            logging=replace(config.logging, delay_persistence=True)
        )
        hw = morphable_logging_overhead(dp)
        assert hw.log_registers_bytes == 16
        # 40 bits per L1 line = TID(8) + TxID(16) + state(16); dirty flags
        # add 64 more with SLDE byte-granularity flags.
        assert hw.l1_extension_bits_per_line == 40 + 64
        # Paper: 404 bytes for the 16-entry undo+redo buffer (with dirty
        # flags: 16 * (74 + 128 + 16) bits / 8 = 436; without: 404).
        assert hw.ulog_counters_bytes == pytest.approx(20.0)

    def test_buffer_bytes_without_dirty_flags_match_paper(self):
        from dataclasses import replace

        config = SystemConfig()
        no_slde = config.with_changes(
            encoding=replace(config.encoding, log_codec="crade")
        )
        hw = morphable_logging_overhead(no_slde)
        assert hw.undo_redo_buffer_bytes == pytest.approx(404.0)
        assert hw.redo_buffer_bytes == pytest.approx(552.0)
        assert hw.l1_extension_bits_per_line == 40
        assert hw.ulog_counters_bytes == 0.0

    def test_slde_flag_overhead_formula(self):
        out = slde_overhead(SystemConfig())
        # Paper section IV-C: <= 1/512 + max(3/202, 2/138) = 1.7 %.
        assert out["flag_bit_overhead"] == pytest.approx(1 / 512 + 3 / 202)
        assert out["logic_gates"] == 4200


class TestReport:
    def test_format_bars(self):
        from repro.analysis.report import format_bars

        text = format_bars({"a": 1.0, "bb": 0.5}, title="t", width=10)
        lines = text.splitlines()
        assert lines[0] == "t"
        assert lines[1].count("#") == 10
        assert lines[2].count("#") == 5

    def test_format_bars_empty_rejected(self):
        from repro.analysis.report import format_bars

        with pytest.raises(ValueError):
            format_bars({})

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xx", 3.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.500" in text

    def test_format_normalized(self):
        text = format_normalized(
            {"w": {"base": 2.0, "other": 4.0}}, baseline="base"
        )
        assert "2.000" in text

    def test_format_normalized_missing_baseline(self):
        with pytest.raises(ValueError):
            format_normalized({"w": {"x": 1.0}}, baseline="base")
