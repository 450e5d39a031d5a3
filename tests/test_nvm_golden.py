"""Golden NVM state for every registered design.

For each design in ``available_designs(True, True)`` on a small hash
cell and a small TPC-C cell, pins the sha256 of:

- the canonical NVM image: per written word slot, its address, logical
  value, data and tag cells as packed ints (3 bits per cell, cell *i* at
  bits 3i..3i+2), and the stored encoding's method, payload and policy;
- the wear map (cell programs per word);
- the NVM ``StatGroup``.

The write path's cell-cost model is the hot spot of the simulator; this
file is the contract that reworking it changes no cell, no wear count
and no counter bit.  Regenerate after an *intended* change with:

    PYTHONPATH=src python tests/make_golden_nvm.py
"""

import hashlib
import json
import os

import pytest

from repro.core.designs import available_designs, make_system
from repro.workloads.base import WorkloadParams, make_workload
from tests.conftest import tiny_config

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "nvm_images.json")

DESIGNS = available_designs(include_ablation=True, include_extensions=True)
#: Transactions per workload: enough for data write-backs on hash, and a
#: TPC-C cell's order lines already program tens of thousands of cells.
N_TX = {"hash": 64, "tpcc": 8}
WORKLOADS = tuple(N_TX)
N_THREADS = 2


def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_image(array) -> list:
    """Every slot of an NVM array as a JSON-safe row, by address."""
    rows = []
    for addr, slot in sorted(array.snapshot().items()):
        enc = slot.encoded
        encoded = (
            None if enc is None
            else [enc.method, enc.payload, enc.policy.name]
        )
        rows.append([addr, slot.logical, slot.data_cells, slot.tag_cells,
                     encoded])
    return rows


def nvm_digests(design: str, workload: str) -> dict:
    """Run one small cell; sha256 of its NVM image, wear and stats."""
    system = make_system(design, tiny_config())
    system.run(
        make_workload(workload, WorkloadParams(initial_items=48,
                                               key_space=96, seed=11)),
        N_TX[workload], N_THREADS,
    )
    module = system.controller.nvm
    return {
        "image": _sha256(canonical_image(module.array)),
        "wear": _sha256(sorted(module.array.wear.items())),
        "stats": _sha256(module.stats.as_dict()),
    }


def make_golden_document() -> dict:
    """The golden NVM contract (used by tests/make_golden_nvm.py)."""
    return {
        design: {workload: nvm_digests(design, workload)
                 for workload in WORKLOADS}
        for design in DESIGNS
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_the_registry(golden):
    assert sorted(golden) == sorted(DESIGNS)
    for design in DESIGNS:
        assert sorted(golden[design]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("design", DESIGNS)
def test_nvm_state_matches_golden(golden, design, workload):
    assert nvm_digests(design, workload) == golden[design][workload], (
        "NVM state of %s/%s diverged from tests/golden/nvm_images.json; "
        "if the change is intended, regenerate with "
        "`PYTHONPATH=src python tests/make_golden_nvm.py`"
        % (design, workload)
    )
