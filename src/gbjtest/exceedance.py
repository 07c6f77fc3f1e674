"""Moments of the exceedance count S(t) = #(|Z_i| >= t).

For Z ~ MVN(mu * 1, Sigma) with unit variances, the mean of S(t) is d
times the closed-form ``exceed_prob`` and the variance is a Hermite series
driven only by the averaged powers of the off-diagonal correlations.  The
mu = 0 specialization gives the null moments used by the
correlation-adjusted supremum statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class PairSummary:
    """The off-diagonal pairs as the crossing recursion sums over them.

    Pair tails depend on rho only through rho^2, so the pairs with |rho| < 1
    are grouped by |rho|: ``rhos`` holds each distinct |rho| (an atom) once,
    ascending, and ``counts`` its number of pairs, as floats.  ``n_perfect``
    counts the pairs with |rho| = 1 within 1e-12, whose two |Z| are equal.
    """

    rhos: np.ndarray
    counts: np.ndarray
    n_perfect: int


@dataclass(frozen=True, eq=False)
class CorrelationModel:
    """A correlation matrix validated once by ``gauss.check_correlation``.
    Its eigenvalues, the power profile at DEFAULT_R_MAX, the off-diagonal
    pairs and their summary are computed on first use."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", gauss.check_correlation(self.matrix))

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigvals(self) -> np.ndarray:
        """Eigenvalues of the matrix's symmetric part, non-increasing; they
        give the quadratic-form component its null law."""
        return np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.T))[::-1]

    @cached_property
    def profile(self) -> CorrPowerProfile:
        return corr_powers(self)

    @cached_property
    def pairs(self) -> np.ndarray:
        """Off-diagonal correlations rho_kl, k < l, in row-major order."""
        return self.matrix[np.triu_indices(self.d, k=1)]

    @cached_property
    def pair_summary(self) -> PairSummary:
        """The pairs grouped by |rho|, the perfect ones counted apart."""
        magnitudes = np.abs(self.pairs)
        perfect = magnitudes >= 1.0 - 1e-12
        atoms, counts = np.unique(magnitudes[~perfect], return_counts=True)
        return PairSummary(atoms, counts.astype(float), int(perfect.sum()))


def correlation_model(Sigma: np.ndarray | CorrelationModel) -> CorrelationModel:
    """``Sigma`` itself if it is a model, else the model of the array."""
    if isinstance(Sigma, CorrelationModel):
        return Sigma
    return CorrelationModel(Sigma)


def corr_powers(Sigma: np.ndarray | CorrelationModel,
                r_max: int = DEFAULT_R_MAX) -> CorrPowerProfile:
    """Averaged off-diagonal correlation powers of a correlation matrix."""
    model = correlation_model(Sigma)
    d = model.d
    if r_max < 1:
        raise DomainError(f"r_max must be >= 1, got {r_max}")
    if d == 1:
        return zero_profile(1, r_max)
    off = model.pairs
    sums = np.empty(r_max)
    pw = np.ones_like(off)                      # off^r by running products
    for r in range(r_max):
        pw *= off
        sums[r] = pw.sum()
    rbar = 2.0 * sums / (d * (d - 1))
    return CorrPowerProfile(rbar=rbar, d=d,
                            high_corr=bool(np.max(np.abs(off)) > HIGH_CORR_FLAG_LEVEL))


def zero_profile(d: int, r_max: int = DEFAULT_R_MAX) -> CorrPowerProfile:
    """Profile of the identity correlation matrix (independence)."""
    return CorrPowerProfile(rbar=np.zeros(r_max), d=d)


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
    profile's r_max: the sum over r of rbar_r / r times the square of
    phi(a) h_{r-1}(a) - phi(b) h_{r-1}(b), with a = t - mu and b = -t - mu.
    Vectorized over t and mu."""
    ab = np.stack((t - mu, -t - mu))
    shape = ab.shape[1:]
    ab = ab.reshape(2, -1)
    rmax = profile.r_max
    q = gauss.hermite_normalized(rmax, ab)      # h_{r-1}(a), h_{r-1}(b) at index r-1
    q *= np.exp(-0.5 * ab * ab)                 # times sqrt(2 pi) phi
    diff = q[:, 0] - q[:, 1]
    w = profile.rbar / (2.0 * np.pi * np.arange(1, rmax + 1))
    return (w @ (diff * diff)).reshape(shape)
