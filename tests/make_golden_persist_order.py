"""Regenerate tests/golden/persist_order.json.

Run after an *intended* change to the order or content of what any
design persists (log entries, commit records, write-ahead flushes,
forced or staged write-backs), to the events it traces, or to the
workload streams of the small hash/tpcc cells:

    PYTHONPATH=src python tests/make_golden_persist_order.py

Review the diff before committing — the golden file is the contract that
refactoring the loggers changes no persist order, no event and no bit.
"""

import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)
sys.path.insert(0, os.path.join(_HERE, os.pardir))
sys.path.insert(0, os.path.join(_HERE, os.pardir, "src"))

from test_persist_order_golden import GOLDEN_PATH, make_golden_document


def main() -> None:
    document = make_golden_document()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(document, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print("wrote %s (%d cells)" % (GOLDEN_PATH, len(document)))


if __name__ == "__main__":
    main()
