"""Extended Beta-Binomial distribution.

EBB(m, lam, gamma) is the law the GBJ objective and the crossing recursion
give an exceedance count.  gamma = 0 is exactly binomial, gamma > 0
overdisperses, and gamma down to ``gamma_floor`` underdisperses.  Its pmf is
a product of three rising factors, lam + gamma k, 1 - lam + gamma k and
1 + gamma k.  ``_log_factor_prefixes`` gives prefix sums of their logs
for many (lam, gamma) at once; the crossing recursion's count loop builds
them for a block of stages and splits each stage's log pmf into factors in
a, m - a and m from them.
``log_kernel`` gives the log pmf at one count per (lam, gamma), less its
binomial coefficient, which is what the GBJ objective reads: from the
prefix sums below CLOSED_FORM_MIN_SIZE, and from closed forms of the three
log sums at and above it, which cost O(1) per entry.  ``match_gamma`` gives
the gamma that reproduces a pairwise indicator correlation, clamped into the
feasible region and flagged rather than failing.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

GAMMA_CLAMP_MARGIN = 1e-6
# Size from which ``log_kernel`` takes the closed forms.  Below it the
# prefix sums cost less per call: for the d rows of a one-g objective call,
# on a 2-core x86-64 VM, 77 us (prefix sums) against 105 us (closed forms)
# at size 50, and 106 against 104 us at size 64.
CLOSED_FORM_MIN_SIZE = 64
# a = x / |gamma| from which a log sum takes the Stirling difference: the
# next term of _stirling_tail, 1 / (1188 a^9), is below 1e-16 there
STIRLING_MIN = 30.0
# (1 + u) log1p(u) - u = sum over k >= 2 of (-1)^k u^k / (k (k - 1)), in
# Horner order; the series replaces the cancelling difference for u below
# _H_SERIES_MAX, where 16 terms reach the rounding level
_H_SERIES_MAX = 0.1
_H_COEFS = tuple((-1.0) ** k / (k * (k - 1)) for k in range(17, 1, -1))


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
    broadcast to a shape S, and the result is one array of shape
    (3,) + S + (size + 1,) that holds pre_a, pre_b and pre_c in that order.
    This kernel does not check feasibility.  Entries up to v are finite when
    gamma is feasible for size v (above gamma_floor(lam, v)); past that a
    factor may reach zero or below, and the entries are -inf or NaN with
    numpy's divide/invalid warning, so a caller that takes prefixes past a
    stage's own size builds them under ``np.errstate`` and never reads those
    entries.
    """
    lam = np.asarray(lam, dtype=float)[..., None]
    gk = np.asarray(gamma, dtype=float)[..., None] * np.arange(size, dtype=float)
    logs = (np.log(lam + gk), _log_one_minus(lam, gk), np.log1p(gk))
    shape = np.broadcast_shapes(lam.shape, gk.shape)
    out = np.zeros((3,) + shape[:-1] + (size + 1,))
    for row, x in zip(out, logs):
        np.cumsum(x if x.shape == shape else np.broadcast_to(x, shape), axis=-1,
                  out=row[..., 1:])
    return out


def _log_one_minus(lam: np.ndarray, gk: np.ndarray) -> np.ndarray:
    """log(1 - lam + gk) as log1p(u), u = gk - lam, except where 1 + u
    rounds to 0 or 2^-52: there the factor is taken as (1 - lam) + gk."""
    u = gk - lam
    tiny = u <= -1.0 + 2.0 ** -52
    if not tiny.any():
        return np.log1p(u, out=u)
    low = np.log((1.0 - np.broadcast_to(lam, u.shape)[tiny])
                 + np.broadcast_to(gk, u.shape)[tiny])
    u[tiny] = 0.0
    np.log1p(u, out=u)
    u[tiny] = low
    return u


def log_kernel(a, size: int, lam, gamma) -> np.ndarray:
    """log Pr(V = a) - log C(size, a) for V ~ EBB(size, lam, gamma), that is
    pre_a[a] + pre_b[size - a] - pre_c[size] in the terms of
    ``_log_factor_prefixes``, for parallel 1-D arrays a, lam and gamma with
    0 < a < size.  gamma must be feasible for ``size``; this kernel does not
    check.

    Below CLOSED_FORM_MIN_SIZE the sums are read from the prefix tables,
    which hold 3 (size + 1) values per entry; from it on each is taken in
    closed form by ``_log_rising``, in O(1) per entry.
    """
    a = np.asarray(a)
    if size < CLOSED_FORM_MIN_SIZE:
        pre_a, pre_b, pre_c = _log_factor_prefixes(size, lam, gamma)
        rows = np.arange(a.size)
        return pre_a[rows, a] + pre_b[rows, size - a] - pre_c[:, size]
    m = a.size
    n = np.concatenate((a, size - a, np.full(m, size))).astype(float)
    v = np.concatenate((lam, -np.asarray(lam, dtype=float), np.zeros(m)))
    sums = _log_rising(v, np.tile(gamma, 3), n, m)
    return sums[:m] + sums[m:2 * m] - sums[2 * m:]


def _stirling_tail(z):
    """lgamma(z) - [(z - 1/2) log z - z + log(2 pi) / 2], for z >= STIRLING_MIN."""
    r = 1.0 / (z * z)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / z


def _log_rising(v, gamma, n, plain: int) -> np.ndarray:
    """Sum over k < n of log(x + gamma k), for parallel 1-D arrays, where
    x = v for the first ``plain`` entries and x = 1 + v for the rest (whose
    logs are taken by log1p, keeping the digits of a small v).  Every factor
    must be positive and n >= 1.

    With a = x' / |gamma| and x' the smallest factor (x, or x + gamma (n - 1)
    when gamma < 0), the sum is n log|gamma| + lgamma(a + n) - lgamma(a):
    - a = inf (gamma = 0, or x' / |gamma| overflows): n log x;
    - a < STIRLING_MIN: log x' + (n - 1) log|gamma| + lgamma(a + n) -
      lgamma(a + 1), which also holds at subnormal a;
    - a >= STIRLING_MIN: n log x' + (a + n - 1/2) log1p(n / a) - n plus the
      difference of Stirling tails, where the lgamma difference would cancel;
      the middle terms are taken as a h(u) - log1p(u) / 2 with u = n / a and
      h(u) = (1 + u) log1p(u) - u, by its series for small u.
    """
    v = np.asarray(v, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    g = np.abs(gamma)
    vs = np.where(gamma < 0.0, v + gamma * (n - 1.0), v)   # x' less its unit part
    log_x = np.empty_like(vs)
    xs = vs.copy()
    xs[plain:] += 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.log(vs[:plain], out=log_x[:plain])
        np.log1p(vs[plain:], out=log_x[plain:])
        a = xs / g
        u = n / a
        l1 = np.log1p(u)
        h = (1.0 + u) * l1 - u
        small = (u > 0.0) & (u < _H_SERIES_MAX)
        if small.any():
            us = u[small]
            acc = np.full(us.size, _H_COEFS[0])
            for c in _H_COEFS[1:]:
                acc = acc * us + c
            h[small] = acc * us * us
        stirling = n * log_x + (a * h - 0.5 * l1 + (_stirling_tail(a + n) - _stirling_tail(a)))
        moderate = log_x + (n - 1.0) * np.log(g) + (gammaln(a + n) - gammaln(a + 1.0))
    # a is inf where gamma = 0 or where x' / |gamma| overflows
    return np.where(np.isinf(a), n * log_x, np.where(a >= STIRLING_MIN, stirling, moderate))


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
