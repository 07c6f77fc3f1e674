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
from scipy.special import chdtrc, chdtri, ndtri

from . import crossing, gauss, scores, setstats
from .errors import DegenerateInputError, DomainError, GBJError, NumericalError
from .exceedance import CorrelationModel, correlation_model

SKAT = "SKAT"
OMNI = "OMNI"
OMNI_COMPONENTS = (setstats.GBJ, setstats.GHC, SKAT, setstats.MINP)
SUPREMUM_COMPONENTS = tuple(c for c in OMNI_COMPONENTS if c != SKAT)
DEFAULT_BOOTSTRAP_REPS = 100
# the least eigenvalue repair_correlation leaves in a broken estimate
REPAIR_EIG_FLOOR = 1e-6
# the omnibus cutoff's search stops once |log(p/alpha)| is at most this
OMNI_CUTOFF_FTOL = 1e-10


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
    s1 = c3 / c2 ** 1.5
    # Liu's noncentrality needs s1^2 > s2 = c4/c2^2, which Cauchy-Schwarz
    # (c3^2 <= c2 c4) rules out for eigenvalues >= 0: the match is central
    dof = 1.0 / (s1 * s1)
    return dof, c1, math.sqrt(2.0 * c2)


def skat_pvalue_from_q(q: float, Sigma: np.ndarray | CorrelationModel) -> float:
    """Survival probability of sum(lambda_i chi^2_1) at q, Liu approximation.

    Exact when Sigma is the identity (the match degenerates to chi^2_d).
    """
    dof, mu_q, sigma_q = _liu_params(correlation_model(Sigma).eigvals)
    x = (q - mu_q) / sigma_q * math.sqrt(2.0 * dof) + dof
    if x <= 0.0:              # chdtrc is NaN at negative x
        return 1.0
    return float(chdtrc(dof, x))


def skat_lite(Z: setstats.ZVector, Sigma: np.ndarray | CorrelationModel) -> float:
    """P-value of the unit-weight quadratic-form component."""
    model = correlation_model(Sigma)
    if model.d != Z.d:
        raise DomainError("dimension mismatch between Z and Sigma")
    return skat_pvalue_from_q(skat_statistic(Z), model)


def skat_threshold(alpha: float, Sigma: np.ndarray | CorrelationModel) -> float:
    """Observed Q at which the quadratic-form p-value equals alpha."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha!r}")
    dof, mu_q, sigma_q = _liu_params(correlation_model(Sigma).eigvals)
    # the inverse of skat_pvalue_from_q's map from q to the chi-square scale
    return mu_q + sigma_q * (chdtri(dof, alpha) - dof) / math.sqrt(2.0 * dof)


def component_pvalues(Z: setstats.ZVector | list[setstats.ZVector],
                      Sigma: np.ndarray | CorrelationModel):
    """The four omnibus component p-values on one set.

    At d = 1 every component collapses to the two-sided normal test, so all
    four are 2 sf(|z|).

    A list of ZVectors on the one ``Sigma`` gives a list with one entry per
    set: its dict, or the GBJError that its first failing component raised.
    The supremum methods take all the sets in one ``crossing._pvalues`` call.
    """
    model = correlation_model(Sigma)
    single = isinstance(Z, setstats.ZVector)
    Zs = [Z] if single else Z
    out: list = [None] * len(Zs)
    live = []
    for i, z in enumerate(Zs):
        if z.d == model.d == 1:     # a size mismatch fails in the GBJ statistic
            p1 = float(min(1.0, 2.0 * gauss.norm_sf(abs(z.z[0]))))
            out[i] = dict.fromkeys(OMNI_COMPONENTS, p1)
        else:
            live.append(i)
    outcomes = crossing._pvalues(SUPREMUM_COMPONENTS, [Zs[i] for i in live], model)
    for k, i in enumerate(live):
        last = outcomes[SUPREMUM_COMPONENTS[-1]][k]     # a failed set's error carries to here
        if isinstance(last, GBJError):
            out[i] = last
        else:
            out[i] = {m: outcomes[m][k].pvalue for m in SUPREMUM_COMPONENTS}
            out[i][SKAT] = skat_lite(Zs[i], model)
    return crossing._one_or_list(out, single)


def repair_correlation(R: np.ndarray) -> np.ndarray:
    """Valid correlation matrix from a possibly noise-broken estimate.

    Left untouched while PSD (perfectly correlated components stay exact);
    when sampling noise from a small bootstrap pushes an eigenvalue negative,
    the spectrum is floored at REPAIR_EIG_FLOOR and the diagonal rescaled."""
    R = 0.5 * (np.asarray(R, dtype=float) + np.asarray(R, dtype=float).T)
    vals, vecs = np.linalg.eigh(R)
    if vals[0] >= -1e-12:
        np.fill_diagonal(R, 1.0)
        return np.clip(R, -1.0, 1.0)
    vals = np.maximum(vals, REPAIR_EIG_FLOOR)
    R2 = vecs @ np.diag(vals) @ vecs.T
    s = 1.0 / np.sqrt(np.diag(R2))
    R2 = R2 * s[:, None] * s[None, :]
    np.fill_diagonal(R2, 1.0)
    return np.clip(0.5 * (R2 + R2.T), -1.0, 1.0)


def _transformed(pvals: np.ndarray) -> np.ndarray:
    return ndtri(1.0 - np.clip(pvals, crossing.PVALUE_FLOOR, 1.0 - crossing.PVALUE_FLOOR))


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


def bootstrap_corr(Sigma: np.ndarray | CorrelationModel, B: int = DEFAULT_BOOTSTRAP_REPS,
                   seed: int = 0):
    """Inter-test correlation by parametric bootstrap, summary-statistic mode.

    Null replicates draw Z* ~ MVN(0, Sigma) directly (the constant-null-mean
    approximation makes this the induced law of the score vector), apply the
    four component tests, inverse-normal transform 1 - p, and correlate.
    Replicate r uses generator seed (seed, r) so any execution order gives
    identical results.

    Returns (R_hat, dropped_count).
    """
    model = correlation_model(Sigma)
    L = _safe_cholesky(model.matrix)
    return _bootstrap_replicates(lambda rng: L @ rng.standard_normal(model.d), model, B, seed)


def bootstrap_corr_individual(fit: scores.NullModelFit, G: scores.GenotypeMatrix,
                              X: np.ndarray, B: int = DEFAULT_BOOTSTRAP_REPS,
                              seed: int = 0):
    """Individual-level bootstrap: simulate outcomes from the fitted null per
    subject, rebuild the score vector against the original fit, and correlate
    the four transformed component p-values.  The replicates score the
    columns ``scores.score_stats`` keeps (``scores.score_basis``): a column in
    the covariate span is left out of both, and both refuse a null fit that
    did not converge.

    Returns (R_hat, dropped_count).
    """
    # the kept columns, denominators and correlation do not involve the outcome
    keep, denom2, Sigma = scores.score_basis(G, fit, X)
    model = correlation_model(repair_correlation(Sigma))
    dinv = 1.0 / np.sqrt(denom2)
    n = G.n

    def draw(rng):
        if fit.family == scores.GAUSSIAN:
            ystar = fit.mu0 + math.sqrt(fit.dispersion) * rng.standard_normal(n)
        else:
            ystar = (rng.uniform(size=n) < fit.mu0).astype(float)
        return (G.values.T @ (ystar - fit.mu0))[keep] * dinv

    return _bootstrap_replicates(draw, model, B, seed)


def _bootstrap_replicates(draw, model: CorrelationModel, B: int, seed: int):
    """Correlation of the four transformed component p-values over B null
    replicates; ``draw(rng)`` returns one replicate's score vector from that
    replicate's generator, seeded (seed, rep).  All replicates are drawn
    first and go to ``component_pvalues`` as one list, so each supremum
    method inverts the bounds of every replicate in one call and takes their
    pair tails in one pass of the series.  Replicates
    whose components fail are dropped.  Returns (R_hat, dropped_count)."""
    if B < 20:
        raise DomainError(f"bootstrap needs B >= 20 replicates, got {B}")
    if seed < 0:
        raise DomainError(f"bootstrap seed must be >= 0, got {seed}")
    Zs = [setstats.ZVector(draw(np.random.default_rng([seed, rep]))) for rep in range(B)]
    cols = [[pv[c] for c in OMNI_COMPONENTS]
            for pv in component_pvalues(Zs, model) if not isinstance(pv, GBJError)]
    dropped = B - len(cols)
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
    for c in OMNI_COMPONENTS:
        if not 0.0 <= component_pvals[c] <= 1.0:
            raise DomainError(f"component p-value {c}={component_pvals[c]!r} is not in [0, 1]")
    R_hat = np.asarray(R_hat, dtype=float)
    if R_hat.shape != (4, 4):
        raise DomainError(f"R_hat must be 4x4, got {R_hat.shape}")
    R_hat = repair_correlation(R_hat)
    omni = float(min(component_pvals[c] for c in OMNI_COMPONENTS))
    omni_c = min(max(omni, crossing.PVALUE_FLOOR), 1.0 - crossing.PVALUE_FLOOR)
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
    """Component-minimum cutoff c with copula-combined p-value alpha: the
    omnibus rejects at level alpha iff min p <= c.

    The combined p-value p(c) is at least c (one component alone) and at
    most 4c (the union bound), so [alpha/5, alpha] brackets c before any
    integral; the lower end keeps a 20% margin because the lattice reads p
    above 4c near that bound (by 0.2% at exchangeable -0.3).  The search
    runs in log c on log(p(c)/alpha) and stops once that is within
    OMNI_CUTOFF_FTOL of 0, far below the copula integral's own error."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha!r}")
    R_hat = correlation_model(repair_correlation(np.asarray(R_hat, dtype=float)))

    def log_ratio(log_c):
        p = 1.0 - gauss.mvn_cdf_small(float(ndtri(1.0 - math.exp(log_c))), R_hat)
        return math.log(p / alpha)

    root = gauss.find_root(log_ratio, math.log(alpha / 5.0), math.log(alpha),
                           ftol=OMNI_CUTOFF_FTOL)
    return math.exp(root)


def omnibus_test(Z: setstats.ZVector, Sigma: np.ndarray | CorrelationModel,
                 B: int = DEFAULT_BOOTSTRAP_REPS, seed: int = 0) -> OmniResult:
    """Full summary-statistic omnibus pipeline on one set."""
    model = correlation_model(Sigma)
    pvals = component_pvalues(Z, model)
    R_hat, dropped = bootstrap_corr(model, B=B, seed=seed)
    return omni_pvalue(pvals, R_hat, bootstrap_reps=B, dropped=dropped)
