"""The benchmark's traced run wraps gbjtest functions by name; a refactor
that renames or drops one must fail here, not only under ``--trace 1``."""

import importlib

import pytest

from perfbench import spans


@pytest.mark.parametrize("qualname", sorted(spans.LAYERS))
def test_layer_resolves_to_a_gbjtest_callable(qualname):
    modname, fname = qualname.split(".")
    module = importlib.import_module(f"gbjtest.{modname}")
    assert callable(getattr(module, fname, None)), f"gbjtest.{qualname} is missing"
