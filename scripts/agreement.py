"""P-value agreement of two checkouts on the benchmark's workloads.

    python scripts/agreement.py run CHECKOUT SEED OUT.json
    python scripts/agreement.py compare BASE.json NEW.json [RTOL]

``run`` computes rounds 0 and 1 of the scan, large_set and calibrate
workloads of ``perfbench.workloads`` at SEED in a fresh process that imports
gbjtest from CHECKOUT/src, and writes every item's outputs (p-values,
simulated (rate, se) pairs and region bounds) as JSON.  Each calibrate
omnibus item also records ``R_hat``, the flattened bootstrap correlation of
its Sigma at the library's default B (``omnibus.DEFAULT_BOOTSTRAP_REPS``)
and seed 0, since the workload itself runs the bootstrap at a smaller B,
and ``c_star``, the omnibus cutoff ``omnibus.omni_threshold(0.01, R_hat)``
on that R_hat, so that ``compare`` reports how the cutoff search moved it.
Every item also records ``flags``: one entry per (method, set) outcome,
bootstrap lists included, naming the method and its diagnostics, or the
error of a set that failed, recorded at ``crossing._pvalues``, one method
after another, each failed set once, at the method that failed.  The file's
``objective_calls`` entry counts the ``setstats.objective_values`` calls of
each workload per method, statistics and boundary inversions alike.  The
workloads and the library look these functions up at call time, so a
wrapper put there sees every call.

``compare`` prints the largest relative difference per workload and
numeric output, with the item where it occurs, then every outcome whose
flags differ, then the two files' objective calls side by side.  It exits 1
when the two files do not hold the same outputs, when any flags differ, or,
given RTOL, when any output's largest relative difference exceeds RTOL, and
then names each such output; the call counts are a report only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scan", "large_set", "calibrate")
ROUNDS = (0, 1)
FLAGS = "flags"
CALLS = "objective_calls"


def spawn(script: str, checkout: str, *args: str) -> int:
    """Runs ``script child SRC *args`` in a fresh process, with one BLAS
    thread, that imports gbjtest from CHECKOUT/src and perfbench from this
    repo; the child calls ``import_checkout(SRC)`` first."""
    src = Path(checkout).resolve() / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT)]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, script, "child", str(src), *args],
                          env=env).returncode


def import_checkout(src: str):
    """Imports gbjtest, refusing a copy from anywhere but ``src``; returns
    ``perfbench.workloads``."""
    import gbjtest
    from perfbench import workloads

    if Path(src) not in Path(gbjtest.__file__).resolve().parents:
        sys.exit(f"gbjtest was imported from {gbjtest.__file__}, not from {src}")
    return workloads


def run(checkout: str, seed: str, out: str) -> int:
    return spawn(__file__, checkout, seed, out)


def child(src: str, seed: str, out: str) -> int:
    import numpy as np

    workloads = import_checkout(src)
    from gbjtest import GBJError, crossing, omnibus, setstats

    flags: list[str] = []
    calls: dict[str, dict[str, int]] = {}      # per workload, then method
    counts: dict[str, int] = {}                # the running workload's
    objective = setstats.objective_values

    def record(outcomes):
        for o in outcomes:
            flags.append(f"{type(o).__name__}: {o}" if isinstance(o, GBJError)
                         else f"{o.method}: {','.join(o.diagnostics)}")

    pvalues = crossing._pvalues

    def recording(methods, *args):
        out = pvalues(methods, *args)
        seen: set[int] = set()
        for method in methods:
            # a failed set's error repeats in every later method
            record(o for o in out[method] if id(o) not in seen)
            seen.update(map(id, out[method]))
        return out

    crossing._pvalues = recording

    def counting(method, *args, **kwargs):
        counts[method] = counts.get(method, 0) + 1
        return objective(method, *args, **kwargs)

    setstats.objective_values = counting
    outputs = {}
    for workload in WORKLOADS:
        counts = calls[workload] = {}
        for r in ROUNDS:
            for item in workloads.build_round(workload, int(seed), r):
                flags.clear()
                outputs[item.id] = {key: np.ravel(getattr(value, "b", value)).tolist()
                                    for key, value in item.run().items()}
                if item.kind == "omnibus":
                    R_hat, _ = omnibus.bootstrap_corr(
                        item.sigma, B=omnibus.DEFAULT_BOOTSTRAP_REPS, seed=0)
                    outputs[item.id]["R_hat"] = R_hat.ravel().tolist()
                    outputs[item.id]["c_star"] = [omnibus.omni_threshold(0.01, R_hat)]
                outputs[item.id][FLAGS] = list(flags)
    outputs[CALLS] = calls
    Path(out).write_text(json.dumps(outputs, indent=1))
    return 0


def _rel(x: float, y: float) -> float:
    return 0.0 if x == y else abs(x - y) / abs(x) if x else float("inf")


def _shape(outputs: dict) -> dict:
    return {item: {key: len(v) for key, v in outs.items()} for item, outs in outputs.items()}


def compare(base: str, new: str, rtol: str | None = None) -> int:
    a, b = (json.loads(Path(path).read_text()) for path in (base, new))
    calls_a, calls_b = a.pop(CALLS, {}), b.pop(CALLS, {})
    if _shape(a) != _shape(b):
        print("the two files do not hold the same items and outputs")
        return 1
    worst: dict[tuple[str, str], tuple[float, str]] = {}
    for item, outs in a.items():
        for key, xs in outs.items():
            if key == FLAGS:
                continue
            diff = max(_rel(x, y) for x, y in zip(xs, b[item][key]))
            cell = (item.split("/")[0], key)
            if diff >= worst.get(cell, (-1.0, ""))[0]:
                worst[cell] = (diff, item)
    print("workload\toutput\tmax_rel_diff\titem")
    for (workload, key), (diff, item) in sorted(worst.items()):
        print(f"{workload}\t{key}\t{diff:.3g}\t{item}")
    flag_diffs = [(item, i, x, y) for item, outs in a.items()
                  for i, (x, y) in enumerate(zip(outs[FLAGS], b[item][FLAGS])) if x != y]
    print(f"outcomes with different flags: {len(flag_diffs)}")
    for item, i, x, y in flag_diffs:
        print(f"{item}\toutcome {i}\t{x!r} -> {y!r}")
    print("workload\tmethod\tobjective_calls_base\tobjective_calls_new")
    for workload in sorted(set(calls_a) | set(calls_b)):
        wa, wb = calls_a.get(workload, {}), calls_b.get(workload, {})
        for method in sorted(set(wa) | set(wb)):
            print(f"{workload}\t{method}\t{wa.get(method, 0)}\t{wb.get(method, 0)}")
    over = [] if rtol is None else [(cell, diff) for cell, (diff, _) in sorted(worst.items())
                                    if diff > float(rtol)]
    for (workload, key), diff in over:
        print(f"{workload}\t{key} differs by {diff:.3g} relative, more than {rtol}")
    return 1 if flag_diffs or over else 0


if __name__ == "__main__":
    modes = {"run": run, "child": child, "compare": compare}
    if len(sys.argv) < 2 or sys.argv[1] not in modes:
        sys.exit(__doc__)
    sys.exit(modes[sys.argv[1]](*sys.argv[2:]))
