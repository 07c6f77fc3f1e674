"""The benchmark's traced run wraps gbjtest functions by name; a refactor
that renames or drops one must fail here, not only under ``--trace 1``."""

import importlib

import numpy as np
import pytest

from gbjtest import crossing, omnibus, setstats, simlab
from perfbench import spans
from tests.conftest import exchangeable


@pytest.mark.parametrize("qualname", sorted(spans.LAYERS))
def test_layer_resolves_to_a_gbjtest_callable(qualname):
    modname, fname = qualname.split(".")
    module = importlib.import_module(f"gbjtest.{modname}")
    assert callable(getattr(module, fname, None)), f"gbjtest.{qualname} is missing"


def test_wrappers_count_the_calls_they_see():
    # the wrappers read t, mu, rhos, bounds and B by name; a renamed
    # parameter fails here rather than under --trace 1
    originals = {name: getattr(importlib.import_module(f"gbjtest.{name.split('.')[0]}"),
                               name.split(".")[1]) for name in spans.LAYERS}
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        d = 8
        Sigma = exchangeable(d, 0.3)
        Z = setstats.ZVector(np.linspace(-1.0, 3.2, d))
        tracer.run_item("pvalue", lambda: crossing.pvalue("GBJ", Z, Sigma))
        tracer.run_item("region", lambda: crossing.rejection_region(
            "GHC", np.array([0.05, 0.01]), d, Sigma))
        tracer.run_item("bootstrap", lambda: omnibus.bootstrap_corr(Sigma, B=20, seed=1))
        tracer.run_item("omnibus", lambda: omnibus.omnibus_test(Z, Sigma, B=20, seed=2))
        config = simlab.SimConfig(structure=simlab.BlockStructure(d=6, k=0, rho3=0.4),
                                  n=200, reps=200, seed=3, bootstrap_reps=20)
        tracer.run_item("study", lambda: simlab.run_study(config, simlab.SIZE))
    finally:
        restore()
    for name, fn in originals.items():
        modname, fname = name.split(".")
        assert getattr(importlib.import_module(f"gbjtest.{modname}"), fname) is fn, name
    metrics, calls = spans.layer_metrics([s for s in tracer.spans if s is not None])
    # every traced layer is reached: a refactor that routes around one fails
    # here and not only under --trace 1
    for name, layer in spans.LAYERS.items():
        assert calls[name] > 0, name
        for count in layer.counts:
            if count in layer.metrics:
                assert metrics[f"{name}.{count}"] > 0, (name, count)
    assert metrics["omnibus.bootstrap_corr.replicates"] == 60
