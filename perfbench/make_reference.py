"""Regenerates ``perfbench/reference.json`` from the current code.

    python3 perfbench/make_reference.py

Runs the first rounds of every workload at the reference seed and stores each
item's outputs.  Items of later rounds, and of other seeds, get the invariant
checks only.  Regenerate only when a change is meant to move p-values beyond
the checks' tolerances, and say so with the change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402

REFERENCE_ROUNDS = {"scan": 24, "large_set": 8, "calibrate": 6}


def main() -> int:
    for var in run.BLAS_VARS:
        os.environ[var] = "1"
    run.import_library()
    from perfbench import checks, workloads

    items = {}
    for workload, rounds in REFERENCE_ROUNDS.items():
        for r in range(rounds):
            for item in workloads.build_round(workload, checks.REFERENCE_SEED, r):
                item.outputs = item.run()
                items[item.id] = checks.reference_entry(item)
            print(f"{workload} round {r} done", flush=True)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump({"seed": checks.REFERENCE_SEED, "rounds": REFERENCE_ROUNDS,
                   "items": items}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
