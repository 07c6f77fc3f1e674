"""gbjtest benchmark: seeded workloads, output checks and per-layer tracing.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one caller, one process, BLAS pinned to one thread):

- ``scan``: many independent small sets, each with its own Sigma; boundary
  inversion dominates.
- ``large_set``: d = 500 sets with all-distinct |rho|; the pairwise tail
  series of the crossing recursion dominates.
- ``calibrate``: the omnibus, a rejection region and a size study, each
  reusing one Sigma many times.

With ``--trace 0`` the run repeats rounds of the workload until ``--seconds``
would be exceeded (at least three rounds) and reports the end-to-end metrics.
Their times are at reference speed: each is rescaled by the time of a fixed
reference kernel measured around it (``speed``), so that they follow
gbjtest rather than the drifting speed of a shared host; the times as
measured are reported beside them.
With ``--trace 1`` it runs the first round twice, untraced and then with
every layer wrapped, and reports per-layer metrics; the difference of
the two passes is ``trace.overhead_s``.  The last line of standard output is
one JSON object; the full result, with machine information, is written to
``perfbench/out/``.  The exit code is 0 when every output check passes, 1
when an item failed, and 2 when the run could not start (no gbjtest under
``src/``, bad arguments, or a traced layer that recorded no call).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy, gbjtest and the sibling modules are imported inside functions, so
# that main() can pin BLAS threads before numpy is first loaded.
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOADS = ("scan", "large_set", "calibrate")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ROUNDS = 3
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 120
TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10

# The probe ends by timing the reference kernel on its own core and prints
# that median and the time the kernel calls took, for the parent to subtract.
_SETUP_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
                "from perfbench.workloads import warm_up; warm_up(); "
                "from perfbench import speed; start = time.perf_counter(); "
                "k = speed.time_kernel(5); print(k, time.perf_counter() - start)")


class StartError(Exception):
    """The benchmark cannot run here; no result is printed."""


def tail_percentile(samples, levels=TAIL_LEVELS, beyond=TAIL_BEYOND):
    """The highest percentile in ``levels`` with at least ``beyond`` samples
    above it, by nearest rank.  Returns (level, value); the level is 100.0
    (the maximum) when too few samples exist for any listed level."""
    xs = sorted(samples)
    n = len(xs)
    for level in levels:
        rank = math.ceil(level / 100.0 * n)
        if rank >= 1 and n - rank >= beyond:
            return level, xs[rank - 1]
    return 100.0, xs[-1]


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"l{level}_cache"] = _read(str(index / "size"))
    return {"l2_cache": sizes.get("l2_cache", "unknown"),
            "l3_cache": sizes.get("l3_cache", "unknown")}


def machine_info(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "seed": seed,
    }


def import_library():
    """Imports gbjtest from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import gbjtest
    except ImportError as exc:
        raise StartError(f"cannot import gbjtest from {src}: {exc}") from exc
    where = Path(gbjtest.__file__).resolve()
    if src.resolve() not in where.parents:
        raise StartError(f"gbjtest was imported from {where}, not from {src}")


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh process to import gbjtest and compute one
    warm-up p-value, as measured and at reference speed (rescaled by the
    kernel time the probe measured after its warm-up)."""
    from perfbench import speed

    raw, ref = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(ROOT / "src"), str(ROOT)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise StartError(f"set-up probe failed:\n{proc.stderr}")
        kernel_s, kernel_total_s = map(float, proc.stdout.split())
        raw.append(elapsed - kernel_total_s)
        ref.append(speed.rescale(raw[-1], kernel_s))
    return statistics.median(raw), statistics.median(ref)


def _run_item(item, runner=None) -> None:
    start = item.started = time.perf_counter()
    try:
        item.outputs = runner(item.id, item.run) if runner else item.run()
    except Exception:  # one failed item is counted, the run goes on
        item.error = traceback.format_exc()
    item.seconds = time.perf_counter() - start


def timed_rounds(workload: str, seed: int, seconds: float):
    """Runs rounds until the next one would end past ``seconds``, with the
    speed sampler on.  Returns the rounds as lists of items, whose
    ``seconds`` exclude the kernel calls and whose ``ref_seconds`` are at
    reference speed, and the sampler's (start, seconds) kernel samples."""
    from perfbench import speed, workloads

    rounds = []
    sampler = speed.Sampler()
    begin = time.perf_counter()
    sampler.start()
    try:
        while True:
            batch = workloads.build_round(workload, seed, len(rounds))
            for item in batch:
                _run_item(item)
            rounds.append(batch)
            elapsed = time.perf_counter() - begin
            if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) > seconds:
                break
    finally:
        sampler.stop()
    for batch in rounds:
        for item in batch:
            end = item.started + item.seconds
            item.seconds -= sampler.busy(item.started, end)
            item.ref_seconds = speed.rescale(
                item.seconds, speed.factor_at(sampler.samples, item.started, end))
    return rounds, sampler.samples


def traced_pass(workload: str, seed: int):
    """The first round run untraced, then again traced.  Returns (items,
    per-layer metrics, call counts, tracer)."""
    from perfbench import spans, workloads

    plain = workloads.build_round(workload, seed, 0)
    start = time.perf_counter()
    for item in plain:
        _run_item(item)
    plain_s = time.perf_counter() - start

    traced = workloads.build_round(workload, seed, 0)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        start = time.perf_counter()
        for item in traced:
            _run_item(item, tracer.run_item)
        traced_s = time.perf_counter() - start
    finally:
        restore()
    metrics, calls = spans.layer_metrics(tracer.spans)
    metrics[spans.OVERHEAD_METRIC] = traced_s - plain_s
    return plain + traced, metrics, calls, tracer


def check_items(items, seed: int) -> list[tuple[str, list[str]]]:
    from perfbench import checks

    reference = checks.load_reference(seed)
    failures = []
    for item in items:
        if item.error is not None:
            failures.append((item.id, [item.error.strip().splitlines()[-1]]))
            continue
        problems = checks.check_item(item, reference)
        if problems:
            failures.append((item.id, problems))
    return failures


def end_to_end(rounds, samples, setup):
    """End-to-end metrics, and report-only figures as (value, unit).

    The gated times are at reference speed (see ``speed``); the times as
    measured are report-only, as is the item tail: on large_set and
    calibrate a run has too few items for any percentile to have ten items
    beyond it."""
    items = [item for batch in rounds for item in batch]
    ref_ms = [item.ref_seconds * 1000.0 for item in items]
    level, tail = tail_percentile(ref_ms)
    setup_raw_s, setup_ref_s = setup
    metrics = {
        "setup_s": (setup_ref_s, "s"),
        "wall_ref_s": (statistics.median(
            sum(item.ref_seconds for item in batch) for batch in rounds), "s"),
        "item_p50_ref_ms": (statistics.median(ref_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    extras = {
        "setup_raw_s": (setup_raw_s, "s"),
        "wall_s": (statistics.median(
            sum(item.seconds for item in batch) for batch in rounds), "s"),
        "item_p50_ms": (statistics.median(item.seconds * 1000.0 for item in items), "ms"),
        "kernel_ms": (statistics.median(d for _, d in samples) * 1000.0, "ms"),
        "item_tail_ref_ms": (tail, "ms"), "item_tail_percentile": (level, "%"),
        "items": (len(items), "count"), "rounds": (len(rounds), "count")}
    kinds = sorted({item.kind for item in items})
    if len(kinds) > 1:
        for kind in kinds:
            extras[f"{kind}_s"] = (statistics.median(
                item.seconds for item in items if item.kind == kind), "s")
            extras[f"{kind}_ref_s"] = (statistics.median(
                item.ref_seconds for item in items if item.kind == kind), "s")
    return metrics, extras


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:                  # before numpy is first imported
        os.environ[var] = "1"
    try:
        import_library()
        from perfbench import spans, workloads
        setup = measure_setup() if not args.trace else None
        workloads.warm_up()
        if args.trace:
            items, layer, calls, tracer = traced_pass(args.workload, args.seed)
            missing = spans.missing_layers(calls, args.workload)
            if missing:
                raise StartError(f"traced layers recorded no call on "
                                 f"{args.workload}: {', '.join(missing)}")
        else:
            rounds, samples = timed_rounds(args.workload, args.seed, args.seconds)
            items = [item for batch in rounds for item in batch]
    except StartError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failures = check_items(items, args.seed)
    if args.trace:
        metrics = {name: (layer[name], spans.metric_unit(name))
                   for name in spans.metric_names()}
        extras = {"items": (len(items), "count")}
    else:
        metrics, extras = end_to_end(rounds, samples, setup)
    extras["failed_frac"] = (len(failures) / len(items), "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = machine_info(args.seed)
    metric_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": info, "metrics": metric_json,
              "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
              "failures": failures}
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}.spans.tsv")
        result["moves"] = {name: spec.moves for name, spec in spans.LAYERS.items()}
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={info['nproc']} cpu={info['cpu_model']!r} "
          f"L2={info['l2_cache']} L3={info['l3_cache']} python={info['python']} "
          f"numpy={info['numpy']} scipy={info['scipy']} blas={info['blas']} "
          f"blas_threads={info['blas_threads']['OPENBLAS_NUM_THREADS']}")
    for item_id, problems in failures:
        for problem in problems:
            print(f"FAIL {item_id}: {problem}")
    for name, (value, unit) in metrics.items():
        note = ""
        if args.trace and name != spans.OVERHEAD_METRIC:
            moves = spans.LAYERS[name.rsplit(".", 1)[0]].moves
            note = "  # should move " + "; ".join(
                f"{w} {', '.join(m)}" for w, m in moves.items())
        print(f"{name} {value:.6g} {unit}{note}")
    for name, (value, unit) in extras.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": not failures, "attempted": len(items),
                      "failed": len(failures), "metrics": metric_json}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
