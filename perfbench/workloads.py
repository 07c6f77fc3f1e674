"""Seeded inputs and timed calls for the three benchmark workloads.

Every workload is a sequence of rounds.  Round ``r`` of seed ``s`` is built
from ``numpy.random.default_rng([s, tag, r])`` alone, so the same (seed,
round) always gives the same arrays no matter how many rounds a run reaches.
The library receives only arrays: correlation matrices, z-vectors and study
configurations are generated here with numpy.

Library functions are looked up through their module at call time
(``gbjtest.crossing.pvalue``, not a bound name), so the traced run's wrappers
see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtri

import gbjtest.crossing
import gbjtest.omnibus
import gbjtest.setstats
import gbjtest.simlab

SUPREMUM = ("GBJ", "BJ", "HC", "GHC", "MinP")

SCAN_DIMS = (5, 10, 20, 50)
SCAN_SIGMAS = ("identity", "exchangeable", "block", "factor")
SCAN_MAX_RHO = 0.6

LARGE_D = 500
LARGE_METHODS = ("GBJ", "GHC", "MinP")
LARGE_MAX_RHO = 0.72
LARGE_SIGNALS = (4.5, 5.0)

OMNIBUS_D = 100
OMNIBUS_B = 20
# The bootstrap replicates dominate the omnibus's cost; fixing their seed,
# like B, keeps that cost alike across run seeds, which vary z.
OMNIBUS_BOOTSTRAP_SEED = 0
REGION_D = 200
REGION_ALPHA = 0.01
STUDY_D = 20
STUDY_REPS = 20_000
STUDY_BOOTSTRAP = 20

_TAGS = {"scan": 11, "large_set": 12, "calibrate": 13}


@dataclass
class Item:
    """One timed unit of work: a set (scan, large_set) or a task (calibrate)."""

    id: str
    kind: str
    run: Callable[[], dict]
    sigma: np.ndarray | None = None
    identity: bool = False
    outputs: dict = field(default_factory=dict)
    started: float = 0.0
    seconds: float = 0.0
    ref_seconds: float = 0.0
    error: str | None = None


# ---------------------------------------------------------------------------
# correlation matrices
# ---------------------------------------------------------------------------

def exchangeable(d: int, rho: float) -> np.ndarray:
    S = np.full((d, d), rho)
    np.fill_diagonal(S, 1.0)
    return S


def block(d: int, size: int, rhos) -> np.ndarray:
    """Block-diagonal exchangeable blocks; ``rhos`` gives one rho per block."""
    S = np.eye(d)
    for b, start in enumerate(range(0, d, size)):
        stop = min(start + size, d)
        S[start:stop, start:stop] = rhos[b]
    np.fill_diagonal(S, 1.0)
    return S


def factor(d: int, k: int, max_rho: float, rng: np.random.Generator) -> np.ndarray:
    """Random rank-k factor correlation, every off-diagonal |rho| distinct,
    scaled so the largest |rho| is ``max_rho``.  The length of the pairwise
    tail series follows the largest |rho|, so fixing it keeps the cost of a
    set alike across seeds."""
    W = rng.standard_normal((d, k))
    lo, hi = 0.0, 10.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        S = _factor_corr(W * mid)
        if np.max(np.abs(S - np.eye(d))) < max_rho:
            lo = mid
        else:
            hi = mid
    return _factor_corr(W * lo)


def _factor_corr(W: np.ndarray) -> np.ndarray:
    S = W @ W.T + np.eye(W.shape[0])
    s = 1.0 / np.sqrt(np.diag(S))
    S = S * s[:, None] * s[None, :]
    S = 0.5 * (S + S.T)
    np.fill_diagonal(S, 1.0)
    return S


def _null_z(S: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return np.linalg.cholesky(S) @ rng.standard_normal(S.shape[0])


def _add_signal(z: np.ndarray, count: int, lo: float, hi: float,
                rng: np.random.Generator) -> np.ndarray:
    idx = rng.choice(z.size, size=count, replace=False)
    z[idx] += rng.choice((-1.0, 1.0), size=count) * rng.uniform(lo, hi, size=count)
    return z


# ---------------------------------------------------------------------------
# per-item calls
# ---------------------------------------------------------------------------

def _pvalues(methods, z: np.ndarray, S: np.ndarray, skat: bool) -> Callable[[], dict]:
    def run() -> dict:
        Z = gbjtest.setstats.ZVector(z)
        out = {m: gbjtest.crossing.pvalue(m, Z, S).pvalue for m in methods}
        if skat:
            out["SKAT"] = gbjtest.omnibus.skat_lite(Z, S)
        return out
    return run


def _omnibus(z: np.ndarray, S: np.ndarray) -> Callable[[], dict]:
    def run() -> dict:
        res = gbjtest.omnibus.omnibus_test(gbjtest.setstats.ZVector(z), S,
                                           B=OMNIBUS_B, seed=OMNIBUS_BOOTSTRAP_SEED)
        return {"OMNI": res.p_omni, **res.component_pvalues}
    return run


def _region(S: np.ndarray) -> Callable[[], dict]:
    def run() -> dict:
        bounds = gbjtest.crossing.rejection_region("GBJ", REGION_ALPHA, S.shape[0], S)
        return {"bounds": bounds}
    return run


def _study(config) -> Callable[[], dict]:
    def run() -> dict:
        res = gbjtest.simlab.run_study(config, gbjtest.simlab.SIZE)
        return {row.method: (row.rate, row.se) for row in res.rows}
    return run


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def scan_round(rng: np.random.Generator, r: int) -> list[Item]:
    """Every (d, Sigma kind, null/signal) cell once; no Sigma is reused."""
    items = []
    for d in SCAN_DIMS:
        for kind in SCAN_SIGMAS:
            if kind == "identity":
                S = np.eye(d)
            elif kind == "exchangeable":
                S = exchangeable(d, 0.3)
            elif kind == "block":
                S = block(d, 5, rng.uniform(0.2, 0.6, size=math.ceil(d / 5)))
            else:
                S = factor(d, 2, SCAN_MAX_RHO, rng)
            for signal in (False, True):
                z = _null_z(S, rng)
                if kind == "identity" and not signal:
                    z *= rng.uniform(0.8, 1.8)      # the Criterion-1 null draw
                if signal:
                    z = _add_signal(z, int(rng.integers(1, 3)), 4.0, 8.0, rng)
                tag = "signal" if signal else "null"
                items.append(Item(id=f"scan/r{r}/d{d}-{kind}-{tag}", kind="set",
                                  run=_pvalues(SUPREMUM, z, S, skat=True), sigma=S,
                                  identity=kind == "identity"))
    return items


def large_set_round(rng: np.random.Generator, r: int) -> list[Item]:
    """One d = 500 set.  Its |z| values are fixed (half-normal quantiles plus
    two signals) and only their order and signs come from the seed: the
    boundary thresholds, and so the depth of the tail series, then hardly
    change between seeds."""
    S = factor(LARGE_D, 3, LARGE_MAX_RHO, rng)
    absz = ndtri(1.0 - (np.arange(LARGE_D) + 0.5) / (2 * LARGE_D))
    absz[:2] = LARGE_SIGNALS
    z = rng.permutation(absz) * rng.choice((-1.0, 1.0), size=LARGE_D)
    return [Item(id=f"large_set/r{r}/d{LARGE_D}-factor", kind="set",
                 run=_pvalues(LARGE_METHODS, z, S, skat=False), sigma=S)]


def calibrate_round(rng: np.random.Generator, r: int) -> list[Item]:
    S_omni = block(OMNIBUS_D, 10, np.full(OMNIBUS_D // 10, 0.5))
    z = _add_signal(_null_z(S_omni, rng), 1, 3.0, 4.0, rng)
    S_region = exchangeable(REGION_D, 0.3)
    config = gbjtest.simlab.SimConfig(
        structure=gbjtest.simlab.BlockStructure(d=STUDY_D, k=0, rho3=0.5),
        reps=STUDY_REPS, seed=int(rng.integers(2**31)),
        bootstrap_reps=STUDY_BOOTSTRAP)
    return [
        Item(id=f"calibrate/r{r}/omnibus", kind="omnibus",
             run=_omnibus(z, S_omni), sigma=S_omni),
        Item(id=f"calibrate/r{r}/region", kind="region", run=_region(S_region),
             sigma=S_region),
        Item(id=f"calibrate/r{r}/simulate", kind="simulate", run=_study(config)),
    ]


ROUNDS = {"scan": scan_round, "large_set": large_set_round,
          "calibrate": calibrate_round}


def build_round(workload: str, seed: int, r: int) -> list[Item]:
    rng = np.random.default_rng([seed, _TAGS[workload], r])
    return ROUNDS[workload](rng, r)


def warm_up() -> float:
    """One p-value, so imports and lazy set-up finish before timing."""
    d = 20
    z = np.linspace(-2.5, 4.5, d)
    return gbjtest.crossing.pvalue("GBJ", gbjtest.setstats.ZVector(z),
                                   exchangeable(d, 0.3)).pvalue
