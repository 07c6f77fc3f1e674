"""Moments of the exceedance count S(t) = #(|Z_i| >= t).

For Z ~ MVN(mu * 1, Sigma) with unit variances, the mean of S(t) is closed
form and the variance is a Hermite series driven only by the averaged powers
of the off-diagonal correlations.  The mu = 0 specialization gives the null
moments used by the correlation-adjusted supremum statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gauss
from .errors import DomainError

DEFAULT_R_MAX = 10
HIGH_CORR_FLAG_LEVEL = 0.95


@dataclass(frozen=True)
class CorrPowerProfile:
    """Averaged powers of off-diagonal correlations.

    ``rbar[r-1]`` holds (2 / (d(d-1))) * sum_{k<l} rho_{kl}^r for r = 1..r_max.
    ``high_corr`` flags any |rho| above 0.95, where long-series truncation
    quality is only oracle-checked, not guaranteed.
    """

    rbar: np.ndarray
    d: int
    high_corr: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rbar", np.asarray(self.rbar, dtype=float))
        if self.d < 1:
            raise DomainError(f"profile set size must be >= 1, got {self.d}")
        if self.rbar.ndim != 1 or self.rbar.size < 1:
            raise DomainError("profile needs at least one averaged power")
        if np.max(np.abs(self.rbar)) > 1.0 + 1e-12:
            raise DomainError("averaged correlation powers must lie in [-1, 1]")

    @property
    def r_max(self) -> int:
        return self.rbar.size


def corr_powers(Sigma: np.ndarray, r_max: int = DEFAULT_R_MAX) -> CorrPowerProfile:
    """Averaged off-diagonal correlation powers of a correlation matrix."""
    Sigma = gauss.check_correlation(Sigma)
    d = Sigma.shape[0]
    if r_max < 1:
        raise DomainError(f"r_max must be >= 1, got {r_max}")
    if d == 1:
        return CorrPowerProfile(rbar=np.zeros(r_max), d=1)
    iu = np.triu_indices(d, k=1)
    off = Sigma[iu]
    pw = off[None, :] ** np.arange(1, r_max + 1)[:, None]
    rbar = 2.0 * pw.sum(axis=1) / (d * (d - 1))
    return CorrPowerProfile(rbar=rbar, d=d,
                            high_corr=bool(off.size and np.max(np.abs(off)) > HIGH_CORR_FLAG_LEVEL))


def zero_profile(d: int, r_max: int = DEFAULT_R_MAX) -> CorrPowerProfile:
    """Profile of the identity correlation matrix (independence)."""
    return CorrPowerProfile(rbar=np.zeros(r_max), d=d)


def count_mean(t, mu, d: int):
    """E S(t) = d * lambda, lambda = 1 - {Phi(t - mu) - Phi(-t - mu)}.

    Vectorized over t and mu.  At mu = 0 this is 2 d sf(t).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("count_mean requires t >= 0")
    lam = exceed_prob(t, mu)
    return d * lam


def exceed_prob(t, mu):
    """Per-coordinate probability Pr(|Z| >= t) with Z ~ N(mu, 1).

    Computed from survival functions to keep accuracy for large t.
    """
    t = np.asarray(t, dtype=float)
    mu = np.asarray(mu, dtype=float)
    return gauss.norm_sf(t - mu) + gauss.norm_sf(t + mu)


def count_variance(t, mu, profile: CorrPowerProfile):
    """Var S(t) under MVN(mu * 1, Sigma) via the Hermite covariance series.

    Truncated at the profile's r_max.  Vectorized over t and mu.  The result
    is clipped below at a tiny positive floor: legitimate underdispersion can
    bring it under d*lam*(1-lam) but never to zero for 0 < lam < 1.
    """
    t = np.asarray(t, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if np.any(t < 0):
        raise DomainError("count_variance requires t >= 0")
    d = profile.d
    lam = exceed_prob(t, mu)
    base = d * lam * (1.0 - lam)
    if d == 1:
        return base
    var = base + d * (d - 1) * _pair_cov(t, mu, profile)
    return np.maximum(var, 1e-300)


def _pair_cov(t, mu, profile: CorrPowerProfile):
    """Average covariance of two exceedance indicators, Var S(t) = d lam
    (1 - lam) + d (d - 1) _pair_cov, by the Hermite series truncated at the
    profile's r_max.  Vectorized over t and mu."""
    a = t - mu
    b = -t - mu
    rmax = profile.r_max
    ha = gauss.hermite_normalized(rmax, a)      # h_{r-1}(a) at index r-1
    hb = gauss.hermite_normalized(rmax, b)
    inv_r = 1.0 / np.arange(1, rmax + 1)
    w = profile.rbar * inv_r
    sA = np.tensordot(w, ha * ha, axes=(0, 0))
    sB = np.tensordot(w, hb * hb, axes=(0, 0))
    sC = np.tensordot(w, ha * hb, axes=(0, 0))
    phia = gauss.norm_pdf(a)
    phib = gauss.norm_pdf(b)
    return phia * phia * sA + phib * phib * sB - 2.0 * phia * phib * sC


@dataclass(frozen=True)
class CountMoments:
    """First two moments of S(t) at one (t, mu)."""

    mean: float
    variance: float
    t: float
    mu: float


def count_moments(t: float, mu: float, profile: CorrPowerProfile) -> CountMoments:
    return CountMoments(mean=float(count_mean(t, mu, profile.d)),
                        variance=float(count_variance(t, mu, profile)),
                        t=float(t), mu=float(mu))
