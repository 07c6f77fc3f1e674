"""Observed supremum statistics: GBJ, BJ, HC, GHC and MinP.

Each supremum statistic maximizes a per-index objective over the larger half
of the absolute order statistics, subject to the one-sided indicator
2*sf(t) < j/d.  The per-index objectives defined here are also what the
crossing module inverts to obtain rejection boundaries, so they are evaluated
through one shared vectorized path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from . import gauss
from .ebb import _log_factor_prefixes, match_gamma
from .errors import DegenerateInputError, DomainError
from .exceedance import (CorrPowerProfile, _pair_cov, corr_powers, count_variance,
                         exceed_prob, zero_profile, DEFAULT_R_MAX)

GBJ = "GBJ"
BJ = "BJ"
HC = "HC"
GHC = "GHC"
MINP = "MinP"

SUPREMUM_METHODS = (GBJ, BJ, HC, GHC)
ALL_METHODS = (GBJ, BJ, HC, GHC, MINP)

# deepest threshold the inversion machinery will chase; sf(38) is still a
# positive subnormal, sf(40) underflows to zero
T_MAX = 38.0
_LAM_FLOOR = 1e-310
_EPS = float(np.finfo(float).eps)
# a guard only: solve_mu converges in 1 to 6 steps from d = 2 to 500
_MU_MAX_STEPS = 100


@dataclass(frozen=True)
class ZVector:
    """Marginal test statistics for one set, with cached |Z| order statistics."""

    z: np.ndarray

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        if z.ndim != 1 or z.size < 1:
            raise DomainError("ZVector requires a one-dimensional, non-empty vector")
        if not np.all(np.isfinite(z)):
            raise DomainError("ZVector entries must all be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "_abs_order", np.sort(np.abs(z), kind="stable"))

    @property
    def d(self) -> int:
        return self.z.size

    @property
    def abs_order(self) -> np.ndarray:
        """|Z|_(1) <= ... <= |Z|_(d), ascending."""
        return self._abs_order


@dataclass
class TestOutcome:
    method: str
    statistic: float
    pvalue: float | None = None
    achieving_index: int | None = None
    indicator_ever_true: bool = False
    diagnostics: tuple[str, ...] = field(default_factory=tuple)


def solve_mu(t: float, j: int, d: int) -> float:
    """The positive mean shift at which E #(|Z_i| >= t) equals j.

    Solves j/d = 1 - {Phi(t - mu) - Phi(-t - mu)} by safeguarded Newton on
    mu in (0, t + ndtri(1 - j/(2d)) + 10].  Requires 1 <= j < d (the
    exceedance probability stays below 1 for every mu, so j = d has no root)
    and 2*sf(t) < j/d.
    """
    if t <= 0:
        raise DomainError(f"solve_mu requires t > 0, got {t!r}")
    if not (1 <= j < d):
        raise DomainError(f"solve_mu requires 1 <= j < d, got j={j}, d={d}")
    if 2.0 * float(gauss.norm_sf(t)) >= j / d:
        raise DomainError(f"indicator violated: 2*sf({t}) >= {j}/{d}")
    return float(_solve_mu_vec(np.array([t]), np.array([j]), d)[0])


def _solve_mu_vec(t: np.ndarray, j: np.ndarray, d: int) -> np.ndarray:
    """Vectorized solve_mu; assumes the indicator holds.

    Newton on f(mu) = Phi(mu - t) + Phi(-mu - t) - j/d, whose derivative is
    phi(mu - t) - phi(mu + t) = -phi(mu - t) expm1(-2 mu t) > 0.  The start is
    the smaller of t + ndtri(j/d) (exact when Phi(-mu - t) is negligible) and
    the root of the quadratic expansion of f at mu = 0 (close near the
    indicator boundary, where the derivative vanishes).  Every iterate
    narrows the bracket [lo, hi] and a step that leaves it is replaced by
    bisection.  An entry stops once |f| is at the rounding level of its
    terms, or once a step lands on a bracket end (it is below the spacing of
    the floats there).
    """
    t = np.asarray(t, dtype=float)
    target = np.asarray(j, dtype=float) / d
    lo = np.zeros_like(t)
    hi = t + ndtri(1.0 - target / 2.0) + 10.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mu_quad = np.sqrt((target - 2.0 * gauss.norm_sf(t)) / (t * gauss.norm_pdf(t)))
    mu = np.clip(np.fmin(t + ndtri(target), mu_quad), lo, hi)
    live = np.ones(t.shape, dtype=bool)
    for _ in range(_MU_MAX_STEPS):
        f = ndtr(mu - t) + ndtr(-mu - t) - target
        above = f >= 0.0
        hi = np.where(above, mu, hi)
        lo = np.where(above, lo, mu)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = mu + f / (gauss.norm_pdf(mu - t) * np.expm1(-2.0 * mu * t))
        solved = np.abs(f) <= 4.0 * _EPS * target
        on_end = (new == lo) | (new == hi)
        new = np.where(((new > lo) & (new < hi)) | on_end, new, 0.5 * (lo + hi))
        mu = np.where(live & ~solved, new, mu)
        live &= ~(solved | on_end)
        if not live.any():
            break
    return mu


def objective_values(method: str, t: np.ndarray, j: np.ndarray, d: int,
                     profile: CorrPowerProfile):
    """Per-index objective for a supremum statistic at thresholds t.

    ``t`` and ``j`` are parallel arrays; every entry must satisfy the
    indicator 2*sf(t) < j/d.  Returns (values, diagnostics tuple).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    j = np.atleast_1d(np.asarray(j, dtype=int))
    flags: list[str] = []
    lam0 = np.maximum(exceed_prob(t, 0.0), _LAM_FLOOR)
    if method in (HC, GHC):
        num = (j - d * lam0) ** 2
        if method == HC:
            den = d * lam0 * (1.0 - lam0)
        else:
            den = count_variance(t, 0.0, profile)
        return num / den, tuple(flags)
    if method not in (GBJ, BJ):
        raise DomainError(f"objective not defined for method {method!r}")

    # null rows first, alternative rows (lambda = j/d) second, so that each
    # kernel below runs once per call
    n = t.size
    lam = np.concatenate((lam0, j / float(d)))
    if method == GBJ:
        mu = np.concatenate((np.zeros(n), _solve_mu_vec(t, j, d)))
        # gamma / (1 + gamma) is the indicators' pairwise correlation; taken
        # from the covariance itself, not from Var S minus its binomial part,
        # which cancel in deep tails
        cov = _pair_cov(np.concatenate((t, t)), mu, profile)
        gamma, clamped = match_gamma(lam, cov / (lam * (1.0 - lam)), d)
        if np.any(clamped):
            flags.append("ebb_gamma_clamped")
    else:
        gamma = np.zeros(2 * n)
    # log EBB(d, lam, gamma) pmf at count j, less log C(d, j): both rows
    # carry it, so it cancels in the ratio
    pre_a, pre_b, pre_c = _log_factor_prefixes(d, lam, gamma)
    rows = np.arange(2 * n)
    jj = np.concatenate((j, j))
    logp = pre_a[rows, jj] + pre_b[rows, d - jj] - pre_c[:, d]
    return logp[n:] - logp[:n], tuple(flags)


def gbj_objective(t: float, j: int, d: int, profile: CorrPowerProfile) -> float:
    """The GBJ per-index objective: the EBB log likelihood ratio at count j.

    Requires 1 <= j < d, where the alternative's mean shift (solve_mu)
    exists, and 2*sf(t) < j/d.
    """
    if not (1 <= j < d):
        raise DomainError(f"gbj_objective requires 1 <= j < d, got j={j}, d={d}")
    if 2.0 * float(gauss.norm_sf(t)) >= j / d:
        raise DomainError(f"indicator violated: 2*sf({t}) >= {j}/{d}")
    vals, _ = objective_values(GBJ, np.array([t]), np.array([j]), d, profile)
    return float(vals[0])


def max_index(d: int) -> int:
    """Upper end of the maximization range: floor(d / 2)."""
    return d // 2


def compute_statistic(method: str, Z: ZVector, Sigma: np.ndarray | None = None,
                      r_max: int = DEFAULT_R_MAX,
                      profile: CorrPowerProfile | None = None) -> TestOutcome:
    """Observed value of one set-based statistic.

    GBJ and GHC consume the correlation structure through its averaged power
    profile; BJ and HC are defined with independent (binomial) reference laws
    regardless of Sigma; MinP is the largest |Z|.
    """
    if method not in ALL_METHODS:
        raise DomainError(f"unknown method {method!r}; expected one of {ALL_METHODS}")
    d = Z.d
    if Sigma is not None:
        Sigma = gauss.check_correlation(Sigma)
        if Sigma.shape[0] != d:
            raise DomainError(f"dimension mismatch: {d} statistics vs "
                              f"{Sigma.shape[0]}x{Sigma.shape[0]} correlation")

    if method == MINP:
        return TestOutcome(method=MINP, statistic=float(Z.abs_order[-1]),
                           indicator_ever_true=True)
    if d < 2:
        raise DegenerateInputError(f"{method} requires d >= 2; only MinP is defined at d=1")

    if profile is None:
        if method in (GBJ, GHC):
            if Sigma is None:
                raise DomainError(f"{method} requires a correlation matrix")
            profile = corr_powers(Sigma, r_max=r_max)
        else:
            profile = zero_profile(d, r_max=r_max)

    jmax = max_index(d)
    js = np.arange(1, jmax + 1)
    ts = Z.abs_order[d - js]                       # t_j = |Z|_(d-j+1)
    qualifies = 2.0 * gauss.norm_sf(ts) < js / d
    flags: list[str] = []
    if profile.high_corr:
        flags.append("high_correlation")
    if not np.any(qualifies):
        return TestOutcome(method=method, statistic=0.0, indicator_ever_true=False,
                           diagnostics=tuple(flags))

    jq = js[qualifies]
    tq = ts[qualifies]
    vals, obj_flags = objective_values(method, tq, jq, d, profile)
    flags.extend(obj_flags)
    best = int(np.argmax(vals))
    stat = float(vals[best])
    if stat <= 0.0:
        # indicator form: non-qualifying indices contribute exactly zero to
        # the max, so a lone negative qualifying objective floors it at zero
        return TestOutcome(method=method, statistic=0.0, achieving_index=None,
                           indicator_ever_true=True,
                           diagnostics=tuple(flags + ["objective_floor"]))
    return TestOutcome(method=method, statistic=stat,
                       achieving_index=int(jq[best]),
                       indicator_ever_true=True, diagnostics=tuple(flags))
