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
from .ebb import log_kernel, match_gamma
from .errors import DegenerateInputError, DomainError
from .exceedance import (CorrelationModel, CorrPowerProfile, _pair_cov, correlation_model,
                         count_variance)

GBJ = "GBJ"
BJ = "BJ"
HC = "HC"
GHC = "GHC"
MINP = "MinP"

PROFILE_METHODS = (GBJ, GHC)   # the objectives that read the power profile
ALL_METHODS = (GBJ, BJ, HC, GHC, MINP)

# deepest threshold the inversion machinery will chase; sf(38) is still a
# positive subnormal, sf(40) underflows to zero
T_MAX = 38.0
_LAM_FLOOR = 1e-310
_EPS = float(np.finfo(float).eps)
# a guard only: _solve_mu_vec takes 1 to 5 evaluations of its function per
# entry (d = 2 to 500, t from t_min + 1e-9 to T_MAX), and _binomial_roots'
# BJ Newton 0 to 5 steps (d = 2 to 500, g = 1e-8 to 1e4)
_NEWTON_MAX_STEPS = 100


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
    diagnostics: tuple[str, ...] = field(default_factory=tuple)


def _solve_mu_vec(t: np.ndarray, j: np.ndarray, d: int) -> np.ndarray:
    """The positive mean shifts mu at which E #(|Z_i| >= t) equals j, that
    is j/d = 1 - {Phi(t - mu) - Phi(-t - mu)}, for parallel arrays t and j.
    Every entry must satisfy 1 <= j < d (at j = d there is no root) and the
    indicator 2*sf(t) < j/d; this solver does not check.

    Newton on f(mu) = Phi(mu - t) + Phi(-mu - t) - j/d, whose derivative is
    phi(mu - t) - phi(mu + t) = -phi(mu - t) expm1(-2 mu t) > 0.  The start is
    the smaller of two estimates.  One is the root of f without its term
    Phi(-mu - t), t + ndtri(j/d), moved by one fixed-point step on that
    term, t + ndtri(j/d - Phi(-mu - t)); both lie above the root, the second
    closer by a factor of about exp(-2 mu t).  The other is the root of the
    quadratic expansion of f at mu = 0, close near the indicator boundary,
    where the derivative vanishes.  Every iterate narrows the bracket
    [lo, hi], which starts at [0, twice the first estimate], and a step that
    leaves it is replaced by bisection.  An entry stops once |f| is at the
    rounding level of its terms, or once a step lands on a bracket end (it
    is below the spacing of the floats there).
    """
    t = np.asarray(t, dtype=float)
    target = np.asarray(j, dtype=float) / d
    tol = 4.0 * _EPS * target
    mt, t2 = -t, -2.0 * t
    live = np.ones(t.shape, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        above_root = t + ndtri(target)
        above_root = t + ndtri(target - ndtr(mt - above_root))
        mu_quad = np.sqrt((target - 2.0 * ndtr(mt)) * gauss._SQRT_2PI / (t * np.exp(-0.5 * t * t)))
        mu = np.fmin(above_root, mu_quad)
        lo, hi = np.zeros_like(t), 2.0 * above_root
        for _ in range(_NEWTON_MAX_STEPS):
            x = mu - t
            f = ndtr(x) + ndtr(mt - mu) - target
            above = f >= 0.0
            hi = np.where(above, mu, hi)
            lo = np.where(above, lo, mu)
            new = mu + f * gauss._SQRT_2PI / (np.exp(-0.5 * x * x) * np.expm1(t2 * mu))
            live &= np.abs(f) > tol
            inside = (new > lo) & (new < hi)
            if not inside[live].all():
                live &= (new != lo) & (new != hi)
                new = np.where(inside, new, 0.5 * (lo + hi))
            if not live.any():
                break
            mu = np.where(live, new, mu)
    return mu


def _binomial_roots(method: str, g: np.ndarray, j: np.ndarray, d: int) -> np.ndarray:
    """Roots t of HC's or BJ's objective at g on the indicator side, for
    parallel arrays g > 0 and 1 <= j <= d/2; +inf where the objective at
    T_MAX (its lam floored as ``objective_values`` floors it) is below g.
    Both objectives read t only through lam = 2 sf(t), and a root in lam
    gives t = -ndtri(lam / 2).

    HC's (j - d lam)^2 / (d lam (1 - lam)) = g is a quadratic in lam, whose
    smaller root is 2 j^2 / (d (2 j + g) + sqrt(d g (4 j (d - j) + d g))), a
    form without cancellation, taken over 2 d so that no finite g overflows.
    BJ's d KL(j/d || lam) = g is solved by Newton in u = log lam from HC's
    root: KL is at most the chi-square divergence that HC's objective is, so
    BJ's root lies at a smaller lam, and the excess is convex and decreasing
    in u, so after the first step the iterates rise to the root.  An entry
    stops once its excess is at the rounding level of its terms, or once a
    step after the first no longer rises.
    """
    lam = j * j / d / (j + 0.5 * g + 0.5 * np.sqrt(g) * np.sqrt(4.0 * j * (d - j) / d + g))
    lam_cap = max(2.0 * float(gauss.norm_sf(T_MAX)), _LAM_FLOOR)
    if method == BJ:
        u = np.log(lam)
        log_q, log_1mq = np.log(j / d), np.log1p(-j / d)
        # the rounding level of the excess: that of its terms at the root,
        # the log-likelihood of the count j at j/d, and g
        rounding = 4.0 * _EPS * (-j * log_q - (d - j) * log_1mq + g)
        live = np.ones(g.shape, dtype=bool)
        for step in range(_NEWTON_MAX_STEPS):
            lam = np.exp(u)
            f = _kl_objective(u, lam, j, d, log_q, log_1mq) - g
            with np.errstate(divide="ignore", invalid="ignore"):
                new = u + f * (1.0 - lam) / (j - d * lam)
            stop = ~np.isfinite(new) | (np.abs(f) <= rounding)
            if step:
                stop |= ~(new > u)
            u = np.where(live & ~stop, new, u)
            live &= ~stop
            if not live.any():
                break
        lam = np.exp(u)
    return np.where(lam < lam_cap, np.inf, -ndtri(0.5 * lam))


def _binomial_objective(method: str, u: np.ndarray, j: np.ndarray, d: int) -> np.ndarray:
    """HC's or BJ's objective at lam = exp(u), for parallel arrays u and j:
    (j - d lam)^2 / (d lam (1 - lam)), or d KL(j/d || lam) taken from u
    itself, so that it keeps its digits where lam is subnormal or zero."""
    lam = np.exp(u)
    if method == HC:
        return (j - d * lam) ** 2 / (d * lam * (1.0 - lam))
    return _kl_objective(u, lam, j, d, np.log(j / d), np.log1p(-j / d))


def _kl_objective(u, lam, j, d: int, log_q, log_1mq) -> np.ndarray:
    """d KL(j/d || lam) at lam = exp(u), given BJ's per-index constants
    log(j/d) and log1p(-j/d), which ``_binomial_roots`` takes once per
    call, not once per Newton step."""
    return j * (log_q - u) + (d - j) * (log_1mq - np.log1p(-lam))


def objective_values(method: str, t: np.ndarray, j: np.ndarray, d: int,
                     profile: CorrPowerProfile | None):
    """Per-index objective for a supremum statistic at thresholds t.

    ``t`` and ``j`` are parallel arrays; every entry must satisfy the
    indicator 2*sf(t) < j/d; only GBJ and GHC read ``profile``.  HC's and
    BJ's are ``_binomial_objective`` at log lam, the function that
    ``_binomial_roots`` inverts.  Returns (values, diagnostics tuple).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    j = np.atleast_1d(np.asarray(j, dtype=int))
    lam0 = np.maximum(2.0 * gauss.norm_sf(t), _LAM_FLOOR)
    if method in (HC, BJ):
        return _binomial_objective(method, np.log(lam0), j, d), ()
    if method == GHC:
        return (j - d * lam0) ** 2 / count_variance(t, 0.0, profile), ()
    if method != GBJ:
        raise DomainError(f"objective not defined for method {method!r}")

    # null rows first, alternative rows (lambda = j/d) second, so that each
    # kernel below runs once per call
    n = t.size
    lam = np.concatenate((lam0, j / float(d)))
    mu = np.concatenate((np.zeros(n), _solve_mu_vec(t, j, d)))
    # gamma / (1 + gamma) is the indicators' pairwise correlation; taken
    # from the covariance itself, not from Var S minus its binomial part,
    # which cancel in deep tails
    cov = _pair_cov(np.concatenate((t, t)), mu, profile)
    gamma, clamped = match_gamma(lam, cov / (lam * (1.0 - lam)), d)
    # log EBB(d, lam, gamma) pmf at count j, less log C(d, j): both rows
    # carry it, so it cancels in the ratio
    logp = log_kernel(np.concatenate((j, j)), d, lam, gamma)
    return logp[n:] - logp[:n], ("ebb_gamma_clamped",) if np.any(clamped) else ()


def max_index(d: int) -> int:
    """Upper end of the maximization range: floor(d / 2)."""
    return d // 2


def compute_statistic(method: str, Z: ZVector,
                      Sigma: np.ndarray | CorrelationModel | None = None) -> TestOutcome:
    """Observed value of one set-based statistic.

    GBJ and GHC consume the correlation structure through its averaged power
    profile; BJ and HC are defined with independent (binomial) reference laws
    regardless of Sigma; MinP is the largest |Z|.
    """
    if method not in ALL_METHODS:
        raise DomainError(f"unknown method {method!r}; expected one of {ALL_METHODS}")
    d = Z.d
    model = None
    if Sigma is not None:
        model = correlation_model(Sigma)
        if model.d != d:
            raise DomainError(f"dimension mismatch: {d} statistics vs "
                              f"{model.d}x{model.d} correlation")

    if method == MINP:
        return TestOutcome(method=MINP, statistic=float(Z.abs_order[-1]))
    if d < 2:
        raise DegenerateInputError(f"{method} requires d >= 2; only MinP is defined at d=1")

    flags: list[str] = []
    profile = None
    if method in PROFILE_METHODS:
        if model is None:
            raise DomainError(f"{method} requires a correlation matrix")
        profile = model.profile
        if profile.high_corr:
            flags.append("high_correlation")

    jmax = max_index(d)
    js = np.arange(1, jmax + 1)
    ts = Z.abs_order[d - js]                       # t_j = |Z|_(d-j+1)
    qualifies = 2.0 * gauss.norm_sf(ts) < js / d
    if not np.any(qualifies):
        return TestOutcome(method=method, statistic=0.0, diagnostics=tuple(flags))

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
                           diagnostics=tuple(flags + ["objective_floor"]))
    return TestOutcome(method=method, statistic=stat, achieving_index=int(jq[best]),
                       diagnostics=tuple(flags))
