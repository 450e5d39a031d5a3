"""The key space is pinned: grid cache keys and bench record digests.

``benchmarks/BASELINE.json`` records are paired with fresh runs by their
config digest, and on-disk grid results are found by their cell key.
Both hash the canonical JSON of ``config_to_dict``, so adding, removing
or renaming a config field, or changing how the dict is built, forks
the key space: cached cells miss and baseline records stop matching.
The digest below is the one the unscaled records in BASELINE.json
carry.  A change that moves either value must say why, and bump
``CACHE_VERSION`` or regenerate the baseline as that change requires.
"""

from repro.bench.records import default_config_digest
from repro.experiments.parallel import resolve_cell
from repro.workloads.base import DatasetSize

DEFAULT_CONFIG_DIGEST = (
    "1aaaf8e10f133eef6d0c6bf7589a512385524eaf363354b0b492fff9197192bc"
)
MORLOG_SLDE_HASH_KEY = (
    "36c788396ce1de685e74a0372980b6f49af6ea5664d4ee60be583fbe3f27f331"
)


def test_default_config_digest(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert default_config_digest() == DEFAULT_CONFIG_DIGEST


def test_cell_key(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    spec = resolve_cell(
        "MorLog-SLDE", "hash", DatasetSize.SMALL, n_transactions=12, n_threads=2
    )
    assert spec.key() == MORLOG_SLDE_HASH_KEY
