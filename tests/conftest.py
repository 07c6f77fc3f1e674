import math

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import gammaln

from gbjtest.ebb import _log_factor_prefixes
from gbjtest.errors import DomainError


def rand_corr(d, rng, factor=4):
    """Random correlation matrix from a wide factor model; larger ``factor``
    concentrates the off-diagonals near zero."""
    W = rng.standard_normal((d, factor * d))
    S = W @ W.T
    dh = 1.0 / np.sqrt(np.diag(S))
    return S * dh[:, None] * dh[None, :]


def exchangeable(d, rho):
    return rho * np.ones((d, d)) + (1.0 - rho) * np.eye(d)


def hermite(r: int, t: float) -> float:
    """Probabilists' Hermite polynomial H_r(t) by the three-term recurrence:
    the scalar reference for ``gauss.hermite_normalized``."""
    if r < 0 or r != int(r):
        raise DomainError(f"hermite order must be a non-negative integer, got {r!r}")
    if r > 64:
        raise DomainError(f"hermite order limited to 64, got {r}")
    prev, curr = 1.0, t
    if r == 0:
        return 1.0
    for k in range(1, r):
        prev, curr = curr, t * curr - k * prev
    return curr


def bivar_abs_tail_quadrature(t: float, rho: float) -> float:
    """Pr(|Z1| >= t, |Z2| >= t) by 2-D adaptive quadrature over the four tail
    quadrants: the slow reference for ``gauss.bivar_abs_tail_many``."""
    if t < 0:
        raise DomainError(f"bivar_abs_tail_quadrature requires t >= 0, got {t!r}")
    det = 1.0 - rho * rho

    def dens(y, x):
        return math.exp(-(x * x - 2.0 * rho * x * y + y * y) / (2.0 * det)) / (2.0 * math.pi * math.sqrt(det))

    hi = t + 9.0
    total = 0.0
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            val, _ = dblquad(lambda y, x: dens(sy * y, sx * x), t, hi, t, hi,
                             epsabs=1e-12, epsrel=1e-11)
            total += val
    return total


def transition_reference(ms, size: int, lam: float, gamma: float) -> np.ndarray:
    """EBB(m, lam, gamma) pmf rows over a = 0 .. size for each m in ``ms``,
    the whole log pmf formed in one expression on index arrays clipped into
    the support: the reference for ``ebb._pmf_rows``, which must equal it
    bit for bit."""
    pre_a, pre_b, pre_c = _log_factor_prefixes(size, lam, gamma)
    log_fact = gammaln(np.arange(size + 1) + 1.0)  # log m! for m = 0 .. size
    m = np.asarray(ms)[:, None]
    a = np.arange(size + 1)
    below = a <= m
    ma = np.where(below, m - a, 0)
    logpmf = (log_fact[m] - log_fact[a] - log_fact[ma]
              + pre_a[a] + pre_b[ma] - pre_c[m])
    return np.exp(np.where(below, logpmf, -np.inf))


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)
