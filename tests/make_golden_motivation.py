"""Regenerate tests/golden/motivation_stats.json.

Run after an *intended* change to the store stream of a motivation
workload (echo, ycsb, tpcc, vacation, ctree, hash, redis, memcached):

    PYTHONPATH=src python tests/make_golden_motivation.py

Review the diff before committing: the golden file is the contract that
Figure 3, Figure 5 and Table II keep reporting the same numbers.
"""

import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, os.pardir))
sys.path.insert(0, os.path.join(_HERE, os.pardir, "src"))

from tests.test_motivation_golden import GOLDEN_PATH, make_golden_document


def main() -> None:
    os.environ.pop("REPRO_SCALE", None)
    document = make_golden_document()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
    print("wrote %s (%d workloads)" % (
        GOLDEN_PATH, len(document["fig5_clean_bytes"])
    ))


if __name__ == "__main__":
    main()
