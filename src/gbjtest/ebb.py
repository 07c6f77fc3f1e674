"""Extended Beta-Binomial distribution.

Log-space PMF evaluation and moment-matched parameter recovery.  The EBB
generalizes the binomial with a dispersion parameter gamma: gamma = 0 is
exactly binomial, gamma > 0 overdisperses, and a limited range of gamma < 0
underdisperses.  Moment matching can request an infeasible gamma; we clamp to
the feasible boundary and flag rather than fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError

LAMBDA_EPS = 1e-12
GAMMA_CLAMP_MARGIN = 1e-6


def gamma_floor(lam, size: int):
    """Smallest feasible gamma for EBB(size, lam, .): every PMF factor
    lam + gamma*k, 1 - lam + gamma*k, 1 + gamma*k must stay positive for
    k = 0 .. size-1.  Vectorized over lam."""
    if size <= 1:
        return -np.inf
    return -np.minimum(lam, 1.0 - lam) / (size - 1)


def _first_violation(size: int, lam: float, gamma: float) -> str | None:
    ks = np.arange(size, dtype=float)
    for name, vals in (("lambda + gamma*k", lam + gamma * ks),
                       ("1 - lambda + gamma*k", 1.0 - lam + gamma * ks),
                       ("1 + gamma*k", 1.0 + gamma * ks)):
        bad = np.nonzero(vals <= 0.0)[0]
        if bad.size:
            return f"{name} <= 0 at k={bad[0]}"
    return None


@dataclass(frozen=True)
class EBBParams:
    """Parameters (size d, lambda, gamma) of one Extended Beta-Binomial law."""

    size: int
    lam: float
    gamma: float

    def __post_init__(self):
        if self.size < 1 or self.size != int(self.size):
            raise DomainError(f"EBB size must be a positive integer, got {self.size!r}")
        if not (0.0 < self.lam < 1.0):
            raise DomainError(f"EBB lambda must be in (0, 1), got {self.lam!r}")
        violation = _first_violation(self.size, self.lam, self.gamma)
        if violation is not None:
            raise DomainError(f"infeasible EBB parameters (d={self.size}, lambda={self.lam}, "
                              f"gamma={self.gamma}): {violation}")

    @property
    def mean(self) -> float:
        return self.size * self.lam

    @property
    def variance(self) -> float:
        d, lam, g = self.size, self.lam, self.gamma
        return d * lam * (1.0 - lam) * (1.0 + (d - 1) * g / (1.0 + g))


def ebb_log_pmf(v: int, params: EBBParams) -> float:
    """log Pr(V = v) for V ~ EBB(params); entirely in log space."""
    d, lam, g = params.size, params.lam, params.gamma
    if v < 0 or v > d or v != int(v):
        raise DomainError(f"EBB support is 0..{d}, got v={v!r}")
    return float(ebb_log_pmf_vec(np.array([int(v)]), d, lam, g)[0])


def ebb_log_pmf_vec(v: np.ndarray, size: int, lam: float, gamma: float) -> np.ndarray:
    """Vectorized log PMF over v (array of ints in 0..size)."""
    violation = _first_violation(size, lam, gamma)
    if violation is not None:
        raise DomainError(f"infeasible EBB parameters (d={size}, lambda={lam}, "
                          f"gamma={gamma}): {violation}")
    pre_a, pre_b, pre_c = _log_factor_prefixes(size, lam, gamma)
    v = np.asarray(v, dtype=int)
    comb = gammaln(size + 1) - gammaln(v + 1) - gammaln(size - v + 1)
    return comb + pre_a[v] + pre_b[size - v] - pre_c[size]


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


@dataclass(frozen=True)
class EBBMatch:
    """Result of moment matching: parameters plus clamp diagnostics."""

    params: EBBParams
    lambda_clamped: bool = False
    gamma_clamped: bool = False

    @property
    def clamped(self) -> bool:
        return self.lambda_clamped or self.gamma_clamped


def ebb_match(mean: float, variance: float, d: int) -> EBBMatch:
    """Recover (lambda, gamma) reproducing the given mean and variance.

    lambda = mean / d; gamma solves
    gamma / (1 + gamma) = (variance - d lam (1-lam)) / (d (d-1) lam (1-lam)).
    The mean is always reproduced exactly.  The variance is reproduced unless
    the requested gamma falls outside the feasible region, in which case gamma
    is clamped just inside the boundary and flagged.
    """
    if d < 1:
        raise DomainError(f"EBB size must be positive, got {d}")
    if not (0.0 < mean < d):
        raise DomainError(f"EBB mean must lie in (0, d)=(0, {d}), got {mean!r}")
    if variance <= 0.0:
        raise DomainError(f"EBB variance must be positive, got {variance!r}")

    lam = mean / d
    lam_clamped = False
    if lam < LAMBDA_EPS:
        lam, lam_clamped = LAMBDA_EPS, True
    elif lam > 1.0 - LAMBDA_EPS:
        lam, lam_clamped = 1.0 - LAMBDA_EPS, True

    if d == 1:
        return EBBMatch(EBBParams(1, lam, 0.0), lambda_clamped=lam_clamped)

    base = d * lam * (1.0 - lam)
    gamma, gam_clamped = match_gamma(lam, (variance - base) / ((d - 1) * base), d)
    return EBBMatch(EBBParams(d, lam, float(gamma)),
                    lambda_clamped=lam_clamped, gamma_clamped=bool(gam_clamped))


def match_gamma(lam, ratio, size: int):
    """Dispersion gamma of EBB(size, lam, gamma) with gamma / (1 + gamma) =
    ratio, the pairwise correlation of the indicators, clamped into the
    feasible region.

    A ratio at or above 1 (variance at or beyond the perfectly-correlated
    ceiling size^2 lam (1 - lam)) is taken as 1 - 1e-12; a gamma at or below
    gamma_floor(lam, size) is moved just inside it.  Vectorized over lam and
    ratio.  Returns (gamma, clamped mask).
    """
    ratio = np.asarray(ratio, dtype=float)
    high = ratio >= 1.0
    ratio = np.where(high, 1.0 - 1e-12, ratio)
    gamma = ratio / (1.0 - ratio)
    floor = gamma_floor(lam, size)
    low = gamma <= floor
    return np.where(low, floor * (1.0 - GAMMA_CLAMP_MARGIN), gamma), high | low
