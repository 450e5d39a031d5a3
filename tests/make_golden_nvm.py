"""Regenerate tests/golden/nvm_images.json.

Run after an *intended* change to what the NVM array stores or charges
(cell mapping, tag layout, DCW cost, wear or NVM counters), or to the
workload streams of the small hash/tpcc cells:

    PYTHONPATH=src python tests/make_golden_nvm.py

Review the diff before committing — the golden file is the contract that
the write path keeps producing the same cells, wear and counters.
"""

import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)
sys.path.insert(0, os.path.join(_HERE, os.pardir))
sys.path.insert(0, os.path.join(_HERE, os.pardir, "src"))

from test_nvm_golden import GOLDEN_PATH, make_golden_document


def main() -> None:
    document = make_golden_document()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(document, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print("wrote %s (%d designs x %d workloads)" % (
        GOLDEN_PATH, len(document), len(next(iter(document.values())))
    ))


if __name__ == "__main__":
    main()
