import math

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import gammaln, ndtr, ndtri

from gbjtest.ebb import _log_factor_prefixes
from gbjtest.errors import DomainError
from gbjtest.gauss import _LATTICE_SHIFTS, _SQRT_PRIMES


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


def lattice_integral_reference(L: np.ndarray, a: np.ndarray, b: np.ndarray, npts: int,
                               nshift: int) -> tuple[float, float]:
    """Pr(a <= L W <= b) for W ~ MVN(0, I) and lower-triangular L, with the
    coordinates already in integration order (``_cholesky_reordered``).

    The Genz sequential transform over ``nshift`` shifts of an ``npts``-point
    tent-mapped Richtmyer lattice.  Returns the mean estimate and the
    standard error of the shifts' spread.

    The reference for ``gauss._lattice_integral``: the kernel as it was
    before it kept its points, building each shift's points on every call.
    """
    d = L.shape[0]
    q = _SQRT_PRIMES[: d - 1]
    base = np.arange(1, npts + 1)[:, None] * q
    base -= np.floor(base)                      # exact fractional parts
    ests = np.empty(nshift)
    # a lower limit of -inf has CDF 0 whatever the shift, so its ndtr is skipped
    open_lo = np.isneginf(a)
    # the first coordinate's limits are the same at every point
    d0, e0 = ndtr(a[0] / L[0, 0]), ndtr(b[0] / L[0, 0])
    y = np.empty((npts, d - 1))
    for s in range(nshift):
        # base and shift lie in [0, 1), so the fractional part of their sum
        # drops 1 where it reaches 1, exactly
        w = base + _LATTICE_SHIFTS[s, : d - 1]
        w -= w >= 1.0
        w *= 2.0
        w -= 1.0
        np.abs(w, out=w)
        dcur, ecur = d0, e0
        f = e0 - d0
        for i in range(1, d):
            z = np.clip(dcur + w[:, i - 1] * (ecur - dcur), 1e-16, 1.0 - 1e-16)
            y[:, i - 1] = ndtri(z)
            mu = y[:, :i] @ L[i, :i]
            dcur = 0.0 if open_lo[i] else ndtr((a[i] - mu) / L[i, i])
            ecur = ndtr((b[i] - mu) / L[i, i])
            f = f * (ecur - dcur)
        ests[s] = f.mean()
    return float(np.clip(ests.mean(), 0.0, 1.0)), float(ests.std(ddof=1) / math.sqrt(nshift))


def transition_reference(ms, size: int, lam: float, gamma: float) -> np.ndarray:
    """EBB(m, lam, gamma) pmf rows over a = 0 .. size for each m in ``ms``,
    the whole log pmf formed in one expression on index arrays clipped into
    the support: a table of the count loop's transitions, one exp per entry,
    the way the loop took its steps before it took them as correlations."""
    pre_a, pre_b, pre_c = _log_factor_prefixes(size, lam, gamma)
    log_fact = gammaln(np.arange(size + 1) + 1.0)  # log m! for m = 0 .. size
    m = np.asarray(ms)[:, None]
    a = np.arange(size + 1)
    below = a <= m
    ma = np.where(below, m - a, 0)
    logpmf = (log_fact[m] - log_fact[a] - log_fact[ma]
              + pre_a[a] + pre_b[ma] - pre_c[m])
    return np.exp(np.where(below, logpmf, -np.inf))


# The longdouble oracle is more accurate than float64 only where longdouble
# has a wider mantissa; elsewhere the tests that lean on it cannot run.
LONGDOUBLE_ORACLE = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63, reason="np.longdouble is no wider than float64 here")


def table_step(q, size: int, lam: float, gamma: float) -> np.ndarray:
    """One count step q_new = q @ P from ``transition_reference``'s rows,
    in blocks of rows; q holds Pr(S = m) for m = 0 .. size along its last
    axis."""
    q = np.asarray(q)
    q_new = np.zeros(q.shape[:-1] + (size + 1,))
    for lo in range(0, size + 1, 256):
        ms = np.arange(lo, min(lo + 256, size + 1))
        q_new += q[..., ms] @ transition_reference(ms, size, lam, gamma)
    return q_new


def oracle_step(q, size: int, lam: float, gamma: float) -> np.ndarray:
    """One count step by the direct sum over m of q[m] Pr(EBB(m, lam,
    gamma) = a), every value in ``np.longdouble``: the log pmf is summed
    from longdouble prefix sums of log k, log(lam + gamma k),
    log(1 - lam + gamma k) and log(1 + gamma k).  Where longdouble is the
    x87 extended format (64-bit mantissa; see ``LONGDOUBLE_ORACLE``) its
    rounding is about 2^-11 of the float64 table's.  q runs over
    m = 0 .. size along its last axis; returns q_new over a = 0 .. size as
    longdouble."""
    ld = np.longdouble
    lam, gamma = ld(lam), ld(gamma)
    k = np.arange(size, dtype=ld)

    def prefix(x):
        return np.concatenate(([ld(0)], np.cumsum(x)))

    log_fact = prefix(np.log(np.arange(1, size + 1, dtype=ld)))
    pre_a = prefix(np.log(lam + gamma * k))
    pre_b = prefix(np.log((1 - lam) + gamma * k))
    pre_c = prefix(np.log1p(gamma * k))
    a = np.arange(size + 1)
    q = np.asarray(q, dtype=ld)
    q_new = np.zeros(q.shape[:-1] + (size + 1,), dtype=ld)
    for lo in range(0, size + 1, 128):
        m = np.arange(lo, min(lo + 128, size + 1))[:, None]
        below = a <= m
        j = np.where(below, m - a, 0)
        log_pmf = (log_fact[m] - log_fact[a] - log_fact[j]
                   + pre_a[a] + pre_b[j] - pre_c[m])
        pmf = np.where(below, np.exp(np.where(below, log_pmf, 0)), 0)
        q_new += q[..., m[:, 0]] @ pmf
    return q_new


def oracle_loop(d: int, lam, gamma, m_maxes, caps) -> np.ndarray:
    """The leaks of the count loop from S(0) = d through the given stages,
    each step by ``oracle_step``, in longdouble."""
    q = np.zeros(d + 1, dtype=np.longdouble)
    q[d] = 1
    leaks = []
    for lam_k, gamma_k, m_max, cap in zip(lam, gamma, m_maxes, caps):
        q_new = oracle_step(q[: m_max + 1], int(m_max), float(lam_k), float(gamma_k))
        leaks.append(q_new[cap + 1:].sum())
        q = q_new[: cap + 1]
    return np.array(leaks, dtype=np.longdouble)


def relevant(values) -> np.ndarray:
    """The entries an oracle comparison holds to: above 1e-200 of the
    largest and above 1e-290."""
    values = np.asarray(values)
    return values > max(1e-200 * values.max(initial=0), 1e-290)


def rel_error(got, want, mask) -> float:
    """Largest relative error of ``got`` against the longdouble ``want``
    over ``mask``."""
    want = np.asarray(want, dtype=np.longdouble)[mask]
    got = np.asarray(got, dtype=np.longdouble)[mask]
    return float(np.max(np.abs(got - want) / want, initial=0.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)
