"""Write bench/golden.json: the reduced library plans' results at GOLDEN_SEED.

    PYTHONPATH=src python3 bench/record_golden.py

The file holds the values the correctness gate compares against. It was
written at the commit that introduced the benchmark; rewrite it only
when a change to the draws is intended, and say so in CHANGES.md.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

if __name__ == "__main__":
    golden = {name: w.golden_record() for name, w in workloads.LIBRARY.items()}
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
