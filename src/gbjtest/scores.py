"""Marginal score statistics and correlation estimates.

Individual-level mode fits a gaussian or logistic null model and produces
standardized score statistics for each genotype column together with their
estimated correlation.  Summary-statistic mode estimates the correlation from
an external reference panel with optional principal-component adjustment.

The n x n projection matrix is never formed: weighted residualization against
the covariates gives the same quadratic forms in O(n q d).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import DegenerateInputError, DomainError, ModelError
from .setstats import ZVector

GAUSSIAN = "gaussian"
BINOMIAL = "binomial"

IRLS_TOL = 1e-8
IRLS_MAX_ITER = 50
IRLS_STEP_TOL = 1e-2            # largest change in eta of a converged fit's last step
MU_CLIP = 1e-10                 # fitted probabilities are kept in [MU_CLIP, 1 - MU_CLIP]


@dataclass(frozen=True)
class GenotypeMatrix:
    """n x d genotype values (allele counts or dosages in [0, 2]) plus ids."""

    values: np.ndarray
    ids: tuple[str, ...]
    imputed: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise DomainError("genotype matrix must be two-dimensional")
        if len(self.ids) != v.shape[1]:
            raise DomainError(f"{len(self.ids)} ids for {v.shape[1]} genotype columns")
        if not np.all(np.isfinite(v)):
            raise DomainError("genotype matrix contains non-finite values after imputation")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class NullModelFit:
    """Null GLM fit: coefficients, fitted means, working weights, dispersion.

    ``residual`` carries y - mu0 so that score statistics can be formed
    without re-passing the outcome.
    """

    family: str
    alpha_hat: np.ndarray
    mu0: np.ndarray
    weights: np.ndarray          # per-subject a_i(phi) * v(mu0_i)
    dispersion: float
    residual: np.ndarray
    converged: bool


def fit_null(y: np.ndarray, X: np.ndarray, family: str) -> NullModelFit:
    """Fit the covariate-only null model with a canonical link.

    gaussian: closed-form least squares, dispersion = residual MSE.
    binomial: logistic IRLS to gradient norm < 1e-8 (or 50 iterations, then
    flagged as non-converged rather than raising).  A fit whose last Newton
    step still moves eta by more than IRLS_STEP_TOL, or whose fitted
    probabilities reach the clip, is flagged too: perfect and quasi-complete
    separation land here.  A constant outcome has no finite fit and is
    refused.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise DomainError(f"incompatible shapes: y {y.shape}, X {X.shape}")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
        raise DomainError("outcome and covariates must be finite")
    n, q = X.shape
    if n <= q:
        raise ModelError(f"need more subjects ({n}) than covariates ({q})")
    if np.linalg.matrix_rank(X) < q:
        raise ModelError("covariate matrix is rank deficient")

    if family == GAUSSIAN:
        alpha, *_ = np.linalg.lstsq(X, y, rcond=None)
        mu0 = X @ alpha
        resid = y - mu0
        phi = float(resid @ resid) / (n - q)
        if phi <= 0:
            raise ModelError("null model has zero residual variance")
        return NullModelFit(family=GAUSSIAN, alpha_hat=alpha, mu0=mu0,
                            weights=np.full(n, phi), dispersion=phi,
                            residual=resid, converged=True)

    if family == BINOMIAL:
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise DomainError("binomial outcome must be coded 0/1")
        if y.min() == y.max():
            raise ModelError(f"binomial outcome is constant (every value is {y[0]:g}); "
                             "the null model has no finite fit")
        alpha = np.zeros(q)
        step = np.zeros(q)
        converged = False
        for _ in range(IRLS_MAX_ITER):
            mu = np.clip(expit(X @ alpha), MU_CLIP, 1.0 - MU_CLIP)
            grad = X.T @ (y - mu)
            if np.linalg.norm(grad) < IRLS_TOL:
                converged = True
                break
            w = mu * (1.0 - mu)
            WX = X * w[:, None]
            try:
                step = np.linalg.solve(X.T @ WX, grad)
            except np.linalg.LinAlgError as exc:
                raise ModelError(f"IRLS normal equations singular: {exc}") from exc
            alpha = alpha + step
        mu0 = np.clip(expit(X @ alpha), MU_CLIP, 1.0 - MU_CLIP)
        if (np.max(np.abs(X @ step)) > IRLS_STEP_TOL
                or np.any((mu0 <= MU_CLIP) | (mu0 >= 1.0 - MU_CLIP))):
            # (quasi-)separation: the MLE diverges, so the gradient vanishes
            # while the Newton steps stay near 1 in eta, or the fitted
            # probabilities reach the clip
            converged = False
        return NullModelFit(family=BINOMIAL, alpha_hat=alpha, mu0=mu0,
                            weights=mu0 * (1.0 - mu0), dispersion=1.0,
                            residual=y - mu0, converged=converged)

    raise DomainError(f"unknown family {family!r}; expected gaussian or binomial")


def _residualize_weighted(G: np.ndarray, X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sqrt(W)-scaled genotype columns with the sqrt(W)X span projected out,
    so that A.T @ A equals G.T P G with P = W - WX(X'WX)^{-1}X'W."""
    sw = np.sqrt(w)[:, None]
    Q, _ = np.linalg.qr(X * sw)
    A = G * sw
    return A - Q @ (Q.T @ A)


def column_corr(A: np.ndarray, denom2: np.ndarray) -> np.ndarray:
    """Column correlation A_j'A_k / sqrt(denom2_j denom2_k), where denom2_j =
    A_j'A_j, with a unit diagonal and exactly symmetric."""
    dinv = 1.0 / np.sqrt(denom2)
    Sigma = (A.T @ A) * dinv[:, None] * dinv[None, :]
    np.fill_diagonal(Sigma, 1.0)
    return 0.5 * (Sigma + Sigma.T)


def score_basis(G: GenotypeMatrix, fit: NullModelFit, X: np.ndarray):
    """The outcome-free part of the score statistics, (keep, denom2, Sigma):
    the mask of the columns outside the covariate span (G_j' P G_j above
    1e-10 (1 + mean G_j'G_j)), their G_j' P G_j and their correlation."""
    X = np.asarray(X, dtype=float)
    if G.n != X.shape[0] or G.n != fit.mu0.size:
        raise DomainError(f"dimension mismatch: genotypes n={G.n}, covariates "
                          f"n={X.shape[0]}, fit n={fit.mu0.size}")
    if not fit.converged:
        raise ModelError("null model fit did not converge; refusing to score")
    A = _residualize_weighted(G.values, X, fit.weights)
    denom2 = np.einsum("ij,ij->j", A, A)
    scale = float(np.mean(np.einsum("ij,ij->j", G.values, G.values))) + 1.0
    keep = denom2 > 1e-10 * scale
    if not np.any(keep):
        raise DegenerateInputError("every genotype column lies in the covariate span")
    return keep, denom2[keep], column_corr(A[:, keep], denom2[keep])


def score_stats(G: GenotypeMatrix, fit: NullModelFit, X: np.ndarray):
    """Marginal score statistics and their estimated correlation.

    Z_j = G_j'(y - mu0) / sqrt(G_j' P G_j); Sigma_jk is the corresponding
    normalized cross form.  Genotype columns inside the covariate span are
    dropped and reported.

    Returns (ZVector, Sigma, kept_ids, dropped_ids).
    """
    keep, denom2, Sigma = score_basis(G, fit, X)
    z = (G.values[:, keep].T @ fit.residual) / np.sqrt(denom2)
    kept_ids = tuple(gid for gid, k in zip(G.ids, keep) if k)
    dropped = tuple(gid for gid, k in zip(G.ids, keep) if not k)
    return ZVector(z), Sigma, kept_ids, dropped


def ref_panel_cov(G_ref: GenotypeMatrix, m: int = 0) -> np.ndarray:
    """Correlation estimate from a reference panel with m principal components.

    Columns are centered; the top-m PCs of the centered panel are regressed
    out (together with the intercept, which centering already handles); the
    residual columns are then correlated.  m = 0 gives the plain sample
    correlation of centered columns.
    """
    if m < 0 or m != int(m):
        raise DomainError(f"number of PCs must be a non-negative integer, got {m!r}")
    vals = G_ref.values
    n_r, d = vals.shape
    if m >= n_r - 1:
        raise DomainError(f"need m < n_r - 1 (m={m}, n_r={n_r})")
    C = vals - vals.mean(axis=0)
    if m > 0:
        # PCs via thin SVD; numpy picks the cheaper Gram side internally
        U, s, _ = np.linalg.svd(C, full_matrices=False)
        ncomp = min(m, int(np.sum(s > 1e-12 * max(s[0], 1.0))))
        pcs = U[:, :ncomp]
        C = C - pcs @ (pcs.T @ C)
    denom2 = np.einsum("ij,ij->j", C, C)
    if np.any(denom2 <= 1e-12):
        bad = [G_ref.ids[i] for i in np.nonzero(denom2 <= 1e-12)[0]]
        raise DegenerateInputError(f"constant or PC-explained panel columns: {bad}")
    return column_corr(C, denom2)
