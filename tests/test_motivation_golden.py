"""Golden motivation statistics: Figure 3, Figure 5 and Table II.

Pins the exact numbers the three motivation figures report for all of
``figures.MOTIVATION_WORKLOADS`` at ``tests/test_experiments.py``'s TINY
scale: every Figure 3 write-distance fraction, every Figure 5 clean-byte
percentage and every Table II pattern fraction, compared with float
equality and in column order.  The store-stream statistics behind them
may be reimplemented freely; these numbers may not move.  Regenerate
after an *intended* change to a workload's store stream with:

    PYTHONPATH=src python tests/make_golden_motivation.py
"""

import json
import os

from repro.experiments import figures
from tests.test_experiments import TINY

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "motivation_stats.json")


def make_golden_document() -> dict:
    """The three motivation figures at TINY scale, in figure order."""
    return {
        "fig3_write_distance": figures.fig3_write_distance(TINY),
        "fig5_clean_bytes": figures.fig5_clean_bytes(TINY),
        "table2_patterns": figures.table2_patterns(TINY),
    }


def test_motivation_stats_match_golden(monkeypatch):
    # TINY's transaction counts scale with REPRO_SCALE; the golden was
    # made at the default scale.
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    document = json.loads(json.dumps(make_golden_document()))
    assert document == golden
    # Equal dicts may still list their columns in another order.
    assert json.dumps(document) == json.dumps(golden)
