"""Omnibus combination of GBJ, GHC, SKAT and MinP.

The component p-values are computed on the same data, so their minimum is
calibrated through a Gaussian copula whose 4x4 correlation is estimated by a
parametric bootstrap under the null.  The quadratic-form component is a
unit-weight statistic with a four-cumulant moment-matched null, exact under
independence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri
from scipy.stats import chi2, ncx2

from . import crossing, gauss, scores, setstats
from .errors import DegenerateInputError, DomainError, GBJError, NumericalError
from .exceedance import DEFAULT_R_MAX

OMNI_COMPONENTS = (setstats.GBJ, setstats.GHC, "SKAT", setstats.MINP)
DEFAULT_BOOTSTRAP_REPS = 100
_P_CLIP = 1e-16


@dataclass(frozen=True)
class OmniResult:
    component_pvalues: dict
    R_hat: np.ndarray
    omni_stat: float
    p_omni: float
    bootstrap_reps: int
    dropped_replicates: int = 0
    diagnostics: tuple[str, ...] = field(default_factory=tuple)


def skat_statistic(Z: setstats.ZVector) -> float:
    """Unit-weight quadratic form Q = sum Z_j^2."""
    return float(Z.z @ Z.z)


def _liu_params(eigs: np.ndarray):
    lam = np.clip(np.asarray(eigs, dtype=float), 0.0, None)
    if np.all(lam <= 1e-12):
        raise DegenerateInputError("quadratic form has no positive eigenvalues")
    c1 = lam.sum()
    c2 = (lam ** 2).sum()
    c3 = (lam ** 3).sum()
    c4 = (lam ** 4).sum()
    s1 = c3 / c2 ** 1.5
    s2 = c4 / c2 ** 2
    if s1 * s1 > s2:
        a = 1.0 / (s1 - math.sqrt(s1 * s1 - s2))
        delta = s1 * a ** 3 - a * a
        dof = a * a - 2.0 * delta
    else:
        delta = 0.0
        a = 1.0 / s1
        dof = 1.0 / (s1 * s1)
    mu_q = c1
    sigma_q = math.sqrt(2.0 * c2)
    mu_x = dof + delta
    sigma_x = math.sqrt(2.0 * (dof + 2.0 * delta))
    return dof, delta, mu_q, sigma_q, mu_x, sigma_x


def skat_pvalue_from_q(q: float, Sigma: np.ndarray) -> float:
    """Survival probability of sum(lambda_i chi^2_1) at q, Liu approximation.

    Exact when Sigma is the identity (the match degenerates to chi^2_d).
    """
    eigs = gauss.sym_eigvals(Sigma)
    dof, delta, mu_q, sigma_q, mu_x, sigma_x = _liu_params(eigs)
    t_final = (q - mu_q) / sigma_q * sigma_x + mu_x
    if delta < 1e-12:
        return float(chi2.sf(t_final, dof))
    return float(ncx2.sf(t_final, dof, delta))


def skat_lite(Z: setstats.ZVector, Sigma: np.ndarray) -> float:
    """P-value of the unit-weight quadratic-form component."""
    Sigma = gauss.check_correlation(Sigma)
    if Sigma.shape[0] != Z.d:
        raise DomainError("dimension mismatch between Z and Sigma")
    return skat_pvalue_from_q(skat_statistic(Z), Sigma)


def skat_threshold(alpha: float, Sigma: np.ndarray) -> float:
    """Observed Q at which the quadratic-form p-value equals alpha."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha!r}")
    d = Sigma.shape[0]
    lo, hi = 1e-8, 10.0 * d
    while skat_pvalue_from_q(hi, Sigma) > alpha:
        hi *= 2.0
        if hi > 1e9:
            raise NumericalError("cannot bracket quadratic-form threshold")
    return gauss.find_root(lambda q: skat_pvalue_from_q(q, Sigma) - alpha, lo, hi, tol=1e-10)


def component_pvalues(Z: setstats.ZVector, Sigma: np.ndarray,
                      r_max: int = DEFAULT_R_MAX) -> dict:
    """The four omnibus component p-values on one set.

    At d = 1 every component collapses to the two-sided normal test, so the
    supremum methods are evaluated as MinP there.
    """
    out = {}
    if Z.d == 1:
        p1 = float(min(1.0, 2.0 * gauss.norm_sf(abs(Z.z[0]))))
        out = {setstats.GBJ: p1, setstats.GHC: p1, "SKAT": p1, setstats.MINP: p1}
        return out
    for method in (setstats.GBJ, setstats.GHC, setstats.MINP):
        out[method] = float(crossing.pvalue(method, Z, Sigma, r_max=r_max).pvalue)
    out["SKAT"] = skat_lite(Z, Sigma)
    return out


def repair_correlation(R: np.ndarray, eig_floor: float = 1e-6) -> np.ndarray:
    """Valid correlation matrix from a possibly noise-broken estimate.

    Left untouched while PSD (perfectly correlated components stay exact);
    when sampling noise from a small bootstrap pushes an eigenvalue negative,
    the spectrum is floored at ``eig_floor`` and the diagonal rescaled."""
    R = 0.5 * (np.asarray(R, dtype=float) + np.asarray(R, dtype=float).T)
    vals, vecs = np.linalg.eigh(R)
    if vals[0] >= -1e-12:
        np.fill_diagonal(R, 1.0)
        return np.clip(R, -1.0, 1.0)
    vals = np.maximum(vals, eig_floor)
    R2 = vecs @ np.diag(vals) @ vecs.T
    s = 1.0 / np.sqrt(np.diag(R2))
    R2 = R2 * s[:, None] * s[None, :]
    np.fill_diagonal(R2, 1.0)
    return np.clip(0.5 * (R2 + R2.T), -1.0, 1.0)


def _transformed(pvals: np.ndarray) -> np.ndarray:
    return ndtri(1.0 - np.clip(pvals, _P_CLIP, 1.0 - _P_CLIP))


def _correlate_columns(X: np.ndarray) -> np.ndarray:
    """Sample correlation of the transformed statistics, with constant
    columns (which arise when a component's p-value degenerates) pinned to
    perfect dependence rather than NaN."""
    sd = X.std(axis=0)
    var = sd >= 1e-12
    if np.all(var):
        return np.corrcoef(X, rowvar=False)
    k = X.shape[1]
    R = np.ones((k, k))
    if np.count_nonzero(var) > 1:
        R[np.ix_(var, var)] = np.corrcoef(X[:, var], rowvar=False)
    np.fill_diagonal(R, 1.0)
    return R


def bootstrap_corr(Sigma: np.ndarray, B: int = DEFAULT_BOOTSTRAP_REPS,
                   seed: int = 0, r_max: int = DEFAULT_R_MAX):
    """Inter-test correlation by parametric bootstrap, summary-statistic mode.

    Null replicates draw Z* ~ MVN(0, Sigma) directly (the constant-null-mean
    approximation makes this the induced law of the score vector), apply the
    four component tests, inverse-normal transform 1 - p, and correlate.
    Replicate r uses generator seed (seed, r) so any execution order gives
    identical results.

    Returns (R_hat, dropped_count).
    """
    if B < 20:
        raise DomainError(f"bootstrap needs B >= 20 replicates, got {B}")
    Sigma = gauss.check_correlation(Sigma)
    d = Sigma.shape[0]
    L = _safe_cholesky(Sigma)
    return _bootstrap_replicates(lambda rng: L @ rng.standard_normal(d), Sigma, B, seed, r_max)


def bootstrap_corr_individual(fit: scores.NullModelFit, G: scores.GenotypeMatrix,
                              X: np.ndarray, B: int = DEFAULT_BOOTSTRAP_REPS,
                              seed: int = 0, r_max: int = DEFAULT_R_MAX):
    """Individual-level bootstrap: simulate outcomes from the fitted null per
    subject, rebuild the score vector against the original fit, and correlate
    the four transformed component p-values.

    Returns (R_hat, dropped_count).
    """
    if B < 20:
        raise DomainError(f"bootstrap needs B >= 20 replicates, got {B}")
    X = np.asarray(X, dtype=float)
    # denominators and correlation do not involve the outcome; fixed per set
    A = scores._residualize_weighted(G.values, X, fit.weights)
    denom2 = np.einsum("ij,ij->j", A, A)
    if np.any(denom2 <= 0):
        raise DegenerateInputError("genotype column in covariate span")
    dinv = 1.0 / np.sqrt(denom2)
    Sigma = (A.T @ A) * dinv[:, None] * dinv[None, :]
    np.fill_diagonal(Sigma, 1.0)
    Sigma = repair_correlation(0.5 * (Sigma + Sigma.T))
    n = G.n

    def draw(rng):
        if fit.family == scores.GAUSSIAN:
            ystar = fit.mu0 + math.sqrt(fit.dispersion) * rng.standard_normal(n)
        else:
            ystar = (rng.uniform(size=n) < fit.mu0).astype(float)
        return (G.values.T @ (ystar - fit.mu0)) * dinv

    return _bootstrap_replicates(draw, Sigma, B, seed, r_max)


def _bootstrap_replicates(draw, Sigma: np.ndarray, B: int, seed: int, r_max: int):
    """Correlation of the four transformed component p-values over B null
    replicates; ``draw(rng)`` returns one replicate's score vector from that
    replicate's generator, seeded (seed, rep).  Replicates whose components
    fail are dropped.  Returns (R_hat, dropped_count)."""
    cols = []
    dropped = 0
    for rep in range(B):
        z = draw(np.random.default_rng([seed, rep]))
        try:
            pv = component_pvalues(setstats.ZVector(z), Sigma, r_max=r_max)
        except GBJError:
            dropped += 1
            continue
        cols.append([pv[c] for c in OMNI_COMPONENTS])
    if len(cols) < B // 2:
        raise NumericalError(f"bootstrap lost {dropped} of {B} replicates")
    return repair_correlation(_correlate_columns(_transformed(np.array(cols)))), dropped


def _safe_cholesky(Sigma: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(Sigma)
        vals = np.maximum(vals, 1e-12)
        return vecs @ np.diag(np.sqrt(vals))


def omni_pvalue(component_pvals: dict, R_hat: np.ndarray,
                bootstrap_reps: int = DEFAULT_BOOTSTRAP_REPS,
                dropped: int = 0) -> OmniResult:
    """Copula-combined p-value of the minimum component p-value."""
    missing = [c for c in OMNI_COMPONENTS if c not in component_pvals]
    if missing:
        raise DomainError(f"missing component p-values: {missing}")
    R_hat = np.asarray(R_hat, dtype=float)
    if R_hat.shape != (4, 4):
        raise DomainError(f"R_hat must be 4x4, got {R_hat.shape}")
    R_hat = gauss.check_correlation(repair_correlation(R_hat))
    omni = float(min(component_pvals[c] for c in OMNI_COMPONENTS))
    omni_c = min(max(omni, _P_CLIP), 1.0 - _P_CLIP)
    z = float(ndtri(1.0 - omni_c))
    p = 1.0 - gauss.mvn_cdf_small(z, R_hat)
    flags = []
    lo_env, hi_env = omni, 1.0 - (1.0 - omni) ** 4
    if p < lo_env - 1e-6 or p > hi_env + 1e-6:
        flags.append("copula_outside_envelope")
    p = float(min(max(p, 0.0), 1.0))
    return OmniResult(component_pvalues=dict(component_pvals), R_hat=R_hat,
                      omni_stat=omni, p_omni=p, bootstrap_reps=bootstrap_reps,
                      dropped_replicates=dropped, diagnostics=tuple(flags))


def omni_threshold(alpha: float, R_hat: np.ndarray) -> float:
    """Component-minimum cutoff c with copula-combined p-value exactly alpha:
    the omnibus rejects at level alpha iff min p <= c."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha!r}")
    R_hat = repair_correlation(np.asarray(R_hat, dtype=float))

    def f(c):
        return 1.0 - gauss.mvn_cdf_small(float(ndtri(1.0 - c)), R_hat) - alpha

    # min p <= combined p <= independence bound, so c is bracketed by
    # [alpha/8, alpha] with slack on the low side
    lo = alpha / 64.0
    while f(lo) > 0:
        lo /= 8.0
        if lo < 1e-300:
            raise NumericalError("cannot bracket omnibus threshold")
    return gauss.find_root(f, lo, alpha, tol=1e-14)


def omnibus_test(Z: setstats.ZVector, Sigma: np.ndarray,
                 B: int = DEFAULT_BOOTSTRAP_REPS, seed: int = 0,
                 r_max: int = DEFAULT_R_MAX) -> OmniResult:
    """Full summary-statistic omnibus pipeline on one set."""
    Sigma = gauss.check_correlation(Sigma)
    pvals = component_pvalues(Z, Sigma, r_max=r_max)
    R_hat, dropped = bootstrap_corr(Sigma, B=B, seed=seed, r_max=r_max)
    return omni_pvalue(pvals, R_hat, bootstrap_reps=B, dropped=dropped)
