"""Span recording around gbjtest's layer functions, from outside the package.

The traced run replaces each function named in ``LAYERS`` with a wrapper in
every gbjtest namespace that holds it (``setstats`` binds ``count_variance``
from ``exceedance``, the package root re-exports most names), records one
span per call, and puts the originals back afterwards.  Spans stay in memory
until the run ends.  Self time and work counts are computed from the spans.

``ebb`` is not wrapped: on hot paths it runs only through ``gamma_floor``
inside ``crossing_pvalue``, a call so small that a wrapper would cost more
than the call, so its time counts in ``crossing.crossing_pvalue`` self time.
``scores``, ``fileio`` and ``cli`` are not measured: they wrap the same
library calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _arg(fn: Callable, name: str):
    """Reads argument ``name`` of a call to ``fn``, applying its default."""
    params = list(inspect.signature(fn).parameters.values())
    idx = [p.name for p in params].index(name)
    default = params[idx].default

    def get(args, kwargs):
        return args[idx] if len(args) > idx else kwargs.get(name, default)
    return get


def _stage_count(b: np.ndarray) -> int:
    """Distinct finite thresholds the crossing recursion visits (ties within
    1e-13 share a stage)."""
    fin = b[np.isfinite(b)]
    if fin.size == 0:
        return 0
    return 1 + int(np.count_nonzero(np.diff(fin) > 1e-13))


@dataclass(frozen=True)
class Layer:
    """One wrapped function.

    ``counts`` names the work counts that ``count(fn)(args, kwargs, result)``
    returns for one call; ``metrics`` lists the reported measures; ``moves`` names the
    end-to-end metrics and workloads a change to this layer should move, and
    the traced run fails if the function records no call on one of them.
    """

    metrics: tuple[str, ...]
    moves: dict[str, tuple[str, ...]]
    counts: tuple[str, ...] = ()
    count: Callable | None = None


def _points_t(fn):
    t_arg = _arg(fn, "t")
    return lambda args, kwargs, result: (np.size(t_arg(args, kwargs)),)


def _points_t_mu(fn):
    t_arg, mu_arg = _arg(fn, "t"), _arg(fn, "mu")
    return lambda args, kwargs, result: (
        np.broadcast(np.asarray(t_arg(args, kwargs)), np.asarray(mu_arg(args, kwargs))).size,)


def _pairs(fn):
    rhos = _arg(fn, "rhos")
    return lambda args, kwargs, result: (np.size(rhos(args, kwargs)),)


def _stages(fn):
    bounds = _arg(fn, "bounds")
    return lambda args, kwargs, result: (_stage_count(bounds(args, kwargs).b),)


def _replicates(fn):
    reps = _arg(fn, "B")

    def count(args, kwargs, result):
        B = reps(args, kwargs)
        kept = B - result[1] if result is not None else 0
        return B, kept
    return count


# What each layer should move.  ``omnibus_ref_s``, ``region_ref_s`` and
# ``simulate_ref_s`` are the calibrate task medians in the run's report.
_INVERSION = {"scan": ("wall_ref_s", "item_p50_ref_ms"), "calibrate": ("simulate_ref_s",)}
_STATISTIC = {"scan": ("wall_ref_s",)}
_RECURSION = {"large_set": ("wall_ref_s", "peak_rss_mb"), "calibrate": ("region_ref_s",)}
_VALIDATION = {"calibrate": ("omnibus_ref_s",)}
_ROOTS = {"calibrate": ("region_ref_s", "simulate_ref_s")}
_BOOTSTRAP = {"calibrate": ("omnibus_ref_s", "simulate_ref_s")}
_STUDY = {"calibrate": ("simulate_ref_s",)}

LAYERS: dict[str, Layer] = {
    "setstats.objective_values": Layer(
        ("calls", "points", "self_s"), _INVERSION, ("points",), _points_t),
    "crossing.invert_bounds": Layer(
        ("calls", "self_s", "objective_evals_per_call"), _INVERSION),
    "exceedance.count_variance": Layer(
        ("calls", "points", "self_s"), _STATISTIC, ("points",), _points_t_mu),
    "setstats.compute_statistic": Layer(("calls", "self_s"), _STATISTIC),
    "crossing.pvalue": Layer(("calls", "self_s"), _STATISTIC),
    "gauss.bivar_abs_tail_many": Layer(
        ("calls", "pairs", "self_s"), _RECURSION, ("pairs",), _pairs),
    "crossing.crossing_pvalue": Layer(
        ("calls", "stages", "self_s"), _RECURSION, ("stages",), _stages),
    "gauss.check_correlation": Layer(("calls", "self_s"), _VALIDATION),
    "exceedance.corr_powers": Layer(("calls", "self_s"), _VALIDATION),
    "omnibus.skat_pvalue_from_q": Layer(("calls", "self_s"), _VALIDATION),
    "crossing.rejection_region": Layer(
        ("calls", "self_s", "pvalue_evals_per_call"), _ROOTS),
    "gauss.find_root": Layer(("calls",), _ROOTS),
    "omnibus.bootstrap_corr": Layer(
        ("calls", "replicates", "kept_ratio", "self_s"), _BOOTSTRAP,
        ("replicates", "kept"), _replicates),
    "omnibus.component_pvalues": Layer(("calls", "self_s"), _BOOTSTRAP),
    "omnibus.omni_pvalue": Layer(("self_s",), _BOOTSTRAP),
    "omnibus.omni_threshold": Layer(("self_s",), _BOOTSTRAP),
    "gauss.mvn_cdf_small": Layer(("calls", "self_s"), _BOOTSTRAP),
    "simlab.run_study": Layer(("self_s",), _STUDY),
    "simlab.sim_genotypes": Layer(("self_s",), _STUDY),
}

# derived per-call ratios: metric -> (parent layer, child layer)
CHILD_RATIOS = {
    "objective_evals_per_call": ("crossing.invert_bounds", "setstats.objective_values"),
    "pvalue_evals_per_call": ("crossing.rejection_region", "crossing.crossing_pvalue"),
}

OVERHEAD_METRIC = "trace.overhead_s"


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = [f"{layer}.{m}" for layer, spec in LAYERS.items() for m in spec.metrics]
    return names + [OVERHEAD_METRIC]


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


@dataclass
class Span:
    id: int
    parent: int | None
    item: str | None
    name: str
    start: float
    end: float
    counts: tuple = ()


class Tracer:
    """Collects spans for one traced pass; single-threaded use."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.item: str | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, count: Callable | None, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            counts = count(args, kwargs, result) if count is not None else ()
            self.spans[sid] = Span(sid, parent, self.item, name, start, end, counts)

    def run_item(self, item_id: str, fn: Callable):
        """Runs one benchmark item under a root span named ``item``."""
        self.item = item_id
        try:
            return self.call("item", fn, None, (), {})
        finally:
            self.item = None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\titem\tname\tstart\tend\tcounts\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                counts = ",".join(str(c) for c in s.counts)
                fh.write(f"{s.id}\t{parent}\t{s.item}\t{s.name}\t{s.start!r}"
                         f"\t{s.end!r}\t{counts}\n")


def _gbjtest_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gbjtest" or name.startswith("gbjtest."))]


def _wrap(tracer: Tracer, name: str, fn: Callable, count: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, count, args, kwargs)
    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wraps every ``LAYERS`` function in every gbjtest namespace that binds
    it.  Returns a function that restores the originals."""
    patched = []
    modules = _gbjtest_modules()
    for qualname, layer in LAYERS.items():
        modname, fname = qualname.split(".")
        original = getattr(importlib.import_module(f"gbjtest.{modname}"), fname)
        count = layer.count(original) if layer.count is not None else None
        wrapper = _wrap(tracer, qualname, original, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))

    def restore():
        for module, attr, original in patched:
            setattr(module, attr, original)
    return restore


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval covered by its
    children, taken as a union so overlapping children count once."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer reported metrics (calls, work counts, self time, derived
    ratios), and the call count of every layer."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls = {name: 0 for name in LAYERS}
    self_s = {name: 0.0 for name in LAYERS}
    counts = {name: [0] * len(spec.counts) for name, spec in LAYERS.items()}
    child_calls: dict[tuple[str, str], int] = {}
    for s, own in zip(spans, selfs):
        if s.name not in LAYERS:
            continue
        calls[s.name] += 1
        self_s[s.name] += own
        for i, c in enumerate(s.counts):
            counts[s.name][i] += c
        if s.parent is not None:
            key = (by_id[s.parent].name, s.name)
            child_calls[key] = child_calls.get(key, 0) + 1

    out: dict[str, float] = {}
    for name, spec in LAYERS.items():
        named = dict(zip(spec.counts, counts[name]))
        for m in spec.metrics:
            if m == "calls":
                value = calls[name]
            elif m == "self_s":
                value = self_s[name]
            elif m == "kept_ratio":
                value = named["kept"] / named["replicates"] if named["replicates"] else 0.0
            elif m in CHILD_RATIOS:
                parent, child = CHILD_RATIOS[m]
                value = child_calls.get((parent, child), 0) / calls[name] if calls[name] else 0.0
            else:
                value = named[m]
            out[f"{name}.{m}"] = value
    return out, calls


def missing_layers(calls: dict[str, int], workload: str) -> list[str]:
    """Layers listed against ``workload`` that recorded no call: a binding the
    wrappers missed, or a workload that no longer reaches the layer."""
    return [name for name, spec in LAYERS.items()
            if workload in spec.moves and calls[name] == 0]
