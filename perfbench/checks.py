"""Output checks for benchmark items.

At the seed the reference was generated for, every p-value must match its
stored value within 1e-4 relative (the loosest p-value gate the project
uses), and every simulated rejection rate within one of its standard errors.
Every seed also gets invariant checks: supremum p-values are finite and in
[1e-16, 1], other p-values in [0, 1], GBJ equals BJ under independence, and
a rejection region's crossing probability is alpha within 1e-4 relative.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import gbjtest.crossing

from . import workloads

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 1
P_REL_TOL = 1e-4
P_FLOOR = 1e-16
IDENTITY_TOL = 1e-8


def load_reference(seed: int) -> dict:
    """Stored outputs by item id, or an empty dict for other seeds."""
    if seed != REFERENCE_SEED:
        return {}
    with open(REFERENCE_PATH) as fh:
        data = json.load(fh)
    if data["seed"] != seed:
        raise ValueError(f"{REFERENCE_PATH} holds seed {data['seed']}, not {seed}")
    return data["items"]


def reference_entry(item: workloads.Item) -> dict:
    """The JSON-storable outputs of one item, as the reference keeps them."""
    out = {}
    for name, value in item.outputs.items():
        if name == "bounds":
            out["region_p"] = region_pvalue(item)
        elif isinstance(value, tuple):
            out[name] = list(value)
        else:
            out[name] = value
    return out


def region_pvalue(item: workloads.Item) -> float:
    """Crossing probability of a rejection region, computed again."""
    return gbjtest.crossing.crossing_pvalue(item.outputs["bounds"], item.sigma)


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_item(item: workloads.Item, reference: dict) -> list[str]:
    """Problems found in one item's outputs; empty when they pass."""
    problems: list[str] = []
    got = reference_entry(item)
    for name, value in got.items():
        if isinstance(value, list):
            rate, se = value
            if not (0.0 <= rate <= 1.0 and math.isfinite(se)):
                problems.append(f"{name}: rate {rate!r} se {se!r} out of range")
            continue
        lo = P_FLOOR if name in workloads.SUPREMUM else 0.0
        if not (math.isfinite(value) and lo <= value <= 1.0):
            problems.append(f"{name}: p={value!r} not finite or outside [{lo:g}, 1]")
    if "region_p" in got:
        alpha = workloads.REGION_ALPHA
        if _rel_diff(got["region_p"], alpha) > P_REL_TOL:
            problems.append(f"region round trip: p={got['region_p']!r} vs alpha={alpha}")
    if item.identity and abs(got["GBJ"] - got["BJ"]) > IDENTITY_TOL:
        problems.append(f"identity Sigma: GBJ p={got['GBJ']!r} != BJ p={got['BJ']!r}")

    ref = reference.get(item.id)
    if ref is None:
        return problems
    if set(ref) != set(got):
        problems.append(f"outputs {sorted(got)} differ from reference {sorted(ref)}")
        return problems
    for name, want in ref.items():
        value = got[name]
        if isinstance(want, list):
            if abs(value[0] - want[0]) > want[1]:
                problems.append(f"{name}: rate {value[0]!r} vs reference {want[0]!r} "
                                f"(se {want[1]:.3g})")
        elif _rel_diff(value, want) > P_REL_TOL:
            problems.append(f"{name}: p={value!r} vs reference {want!r}")
    return problems
