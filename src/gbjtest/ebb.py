"""Extended Beta-Binomial distribution.

EBB(m, lam, gamma) is the law the GBJ objective and the crossing recursion
give an exceedance count.  gamma = 0 is exactly binomial, gamma > 0
overdisperses, and gamma down to ``gamma_floor`` underdisperses.
``transition`` gives its pmf rows for several sizes m at one (lam, gamma);
``match_gamma`` gives the gamma that reproduces a pairwise indicator
correlation, clamped into the feasible region and flagged rather than
failing; both build on the log-factor prefixes of ``_log_factor_prefixes``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

GAMMA_CLAMP_MARGIN = 1e-6


def gamma_floor(lam, size):
    """Smallest feasible gamma for EBB(size, lam, .): every PMF factor
    lam + gamma*k, 1 - lam + gamma*k, 1 + gamma*k must stay positive for
    k = 0 .. size-1.  Vectorized over lam and size; -inf where size <= 1."""
    size = np.asarray(size)
    floor = -np.minimum(lam, 1.0 - lam) / np.maximum(size - 1, 1)
    return np.where(size <= 1, -np.inf, floor)


def _log_factor_prefixes(size: int, lam, gamma):
    """Prefix sums of the three log factor sequences of the EBB pmf,
    log(lam + gamma k), log(1 - lam + gamma k) and log(1 + gamma k), along a
    last axis indexed by the number of factors taken (0..size):

        log Pr(V = v) = log C(size, v) + pre_a[v] + pre_b[size - v] - pre_c[size],

    and the same prefixes serve every size m <= size.  ``lam`` and ``gamma``
    broadcast: arrays of shape S give prefixes of shape S + (size + 1,)
    (pre_c, which does not involve lam, follows gamma's shape).  The
    parameters must be feasible for ``size`` (gamma above gamma_floor); this
    kernel does not check.
    """
    lam = np.asarray(lam, dtype=float)[..., None]
    gk = np.asarray(gamma, dtype=float)[..., None] * np.arange(size, dtype=float)

    def prefix(x):
        out = np.zeros(x.shape[:-1] + (size + 1,))
        np.cumsum(x, axis=-1, out=out[..., 1:])
        return out

    return prefix(np.log(lam + gk)), prefix(np.log1p(gk - lam)), prefix(np.log1p(gk))


def transition(ms, size: int, lam: float, gamma: float) -> np.ndarray:
    """PMF rows of EBB(m, lam, gamma) for each size m in ``ms``.

    Row i holds Pr(V = a), V ~ EBB(ms[i], lam, gamma), for a = 0 .. size,
    and exactly 0 for a > ms[i].  Every m lies in 0 .. size, and gamma must
    be feasible for ``size`` (above gamma_floor(lam, size)); this kernel
    does not check.  All rows come from one set of log-factor prefixes and
    are exponentiated from log space.
    """
    pre_a, pre_b, pre_c = _log_factor_prefixes(size, lam, gamma)
    log_fact = gammaln(np.arange(size + 1) + 1.0)  # log m! for m = 0 .. size
    m = np.asarray(ms)[:, None]
    a = np.arange(size + 1)
    below = a <= m
    ma = np.where(below, m - a, 0)
    logpmf = (log_fact[m] - log_fact[a] - log_fact[ma]
              + pre_a[a] + pre_b[ma] - pre_c[m])
    return np.exp(np.where(below, logpmf, -np.inf))


def match_gamma(lam, ratio, size):
    """Dispersion gamma of EBB(size, lam, gamma) with gamma / (1 + gamma) =
    ratio, the pairwise correlation of the indicators, clamped into the
    feasible region.

    A ratio at or above 1 (variance at or beyond the perfectly-correlated
    ceiling size^2 lam (1 - lam)) is taken as 1 - 1e-12; a gamma at or below
    gamma_floor(lam, size) is moved just inside it.  Vectorized over lam,
    ratio and size.  Returns (gamma, clamped mask).
    """
    ratio = np.asarray(ratio, dtype=float)
    high = ratio >= 1.0
    ratio = np.where(high, 1.0 - 1e-12, ratio)
    gamma = ratio / (1.0 - ratio)
    floor = gamma_floor(lam, size)
    low = gamma <= floor
    return np.where(low, floor * (1.0 - GAMMA_CLAMP_MARGIN), gamma), high | low
