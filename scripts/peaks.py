"""Peak traced memory of every round-0 item of the benchmark's workloads.

    python scripts/peaks.py CHECKOUT SEED

Builds round 0 of the scan, large_set and calibrate workloads of
``perfbench.workloads`` at SEED in a fresh process that imports gbjtest from
CHECKOUT/src (as ``agreement.py run`` does), runs one warm-up p-value, then
runs each item under ``tracemalloc`` and prints its peak in MiB.  The peak
counts what the item allocates through Python and numpy while it runs, not
its inputs.

The benchmark's ``peak_rss_mb`` is the resident peak of a whole run, so it
moves with the number of rounds that fit in the run, the allocator and the
host; a speed-up was once refused on it when large_set's peak rose from 90
to 152 MiB.  These per-item peaks do not depend on any of that, so they show
whether a change itself needs more memory per p-value.
"""

from __future__ import annotations

import sys
import tracemalloc

from agreement import WORKLOADS, import_checkout, spawn


def run(checkout: str, seed: str) -> int:
    return spawn(__file__, checkout, seed)


def child(src: str, seed: str) -> int:
    workloads = import_checkout(src)
    workloads.warm_up()
    print("item\tpeak_mib")
    for workload in WORKLOADS:
        for item in workloads.build_round(workload, int(seed), 0):
            tracemalloc.start()
            try:
                item.run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print(f"{item.id}\t{peak / 2**20:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "child":
        sys.exit(child(*sys.argv[2:]))
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(run(*sys.argv[1:]))
