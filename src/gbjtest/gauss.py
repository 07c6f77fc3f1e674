"""Scalar and small-matrix Gaussian kernels.

Standard-normal functions, probabilists' Hermite polynomials, joint absolute
tail probabilities of a bivariate normal, a deterministic low-dimension
multivariate normal integrator, symmetric eigenvalues, and bracketed
root-finding.  Everything here is a pure function; nothing caches mutable
state, so concurrent use is unrestricted.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import dblquad
from scipy.special import log_ndtr, ndtr, ndtri, roots_legendre

from .errors import BracketError, DomainError, NumericalError

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Richtmyer generators (fractional parts of k*sqrt(prime)) for the lattice
# integrator, plus a fixed table of shifts so results never depend on an RNG.
_SQRT_PRIMES = np.sqrt(np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37], dtype=float))
_LATTICE_SHIFTS = np.random.default_rng(20240501).uniform(size=(12, 12))

_GL_NODES, _GL_WEIGHTS = roots_legendre(96)


class StdNormal(NamedTuple):
    pdf: float
    cdf: float
    sf: float


def std_normal(t: float) -> StdNormal:
    """Density, CDF and survival function of the standard normal at ``t``.

    The survival function keeps relative accuracy deep into the tail: erfc
    up to |t| = 30, exp(log-scale survival) beyond, where erfc's internal
    exponential would underflow (near t = 37.6) long before the value itself
    leaves the subnormal range.
    """
    if not math.isfinite(t):
        raise DomainError(f"std_normal requires finite t, got {t!r}")
    pdf = math.exp(-0.5 * t * t) / _SQRT_2PI
    return StdNormal(pdf=pdf, cdf=float(_sf_scalar(-t)), sf=float(_sf_scalar(t)))


def _sf_scalar(t: float) -> float:
    if t > 30.0:
        return math.exp(float(log_ndtr(-t)))
    return float(ndtr(-t))


def std_normal_inv(p: float) -> float:
    """Quantile of the standard normal, 0 < p < 1."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"std_normal_inv requires p in (0, 1), got {p!r}")
    return float(ndtri(p))


def norm_sf(t):
    """Vectorized survival function; log-scale branch past t = 30 avoids the
    erfc underflow-to-zero near t = 37.6."""
    t = np.asarray(t, dtype=float)
    out = ndtr(-t)
    deep = t > 30.0
    if np.any(deep):
        out = np.where(deep, np.exp(log_ndtr(-t)), out)
    return out


def norm_cdf(t):
    return ndtr(np.asarray(t, dtype=float))


def norm_pdf(t):
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5 * t * t) / _SQRT_2PI


def norm_log_sf(t):
    """log of the survival function; stable for large t."""
    return log_ndtr(-np.asarray(t, dtype=float))


def hermite(r: int, t: float) -> float:
    """Probabilists' Hermite polynomial H_r(t) by the three-term recurrence."""
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


def hermite_normalized(r_max: int, t):
    """h_r(t) = H_r(t) / sqrt(r!) for r = 0 .. r_max - 1, vectorized in t.

    The normalized recurrence stays bounded (Cramer's inequality), so long
    series over large arguments never overflow.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((r_max,) + t.shape)
    prev = np.zeros_like(t)
    curr = np.ones_like(t)
    for r in range(r_max):
        out[r] = curr
        nxt = t * curr / math.sqrt(r + 1) - prev * math.sqrt(r / (r + 1))
        prev, curr = curr, nxt
    return out


def bivar_abs_tail(t: float, rho: float, tol: float = 1e-12, r_cap: int = 1000) -> float:
    """Pr(|Z1| >= t, |Z2| >= t) for standard bivariate normal, correlation rho.

    Evaluated as (2 * sf(t))^2 plus the even-order Hermite covariance series.
    Odd orders cancel under the absolute value, which also makes the result
    even in rho.  The series has nonnegative terms, so the sum keeps relative
    accuracy; terms are added until they fall below ``tol`` relative (past the
    envelope peak near r = t^2) or ``r_cap`` is reached.
    """
    if t < 0:
        raise DomainError(f"bivar_abs_tail requires t >= 0, got {t!r}")
    if not (-1.0 < rho < 1.0):
        raise DomainError(f"bivar_abs_tail requires |rho| < 1, got {rho!r}")
    return float(bivar_abs_tail_many(t, np.array([rho]), tol=tol, r_cap=r_cap)[0])


def bivar_abs_tail_many(t: float, rhos: np.ndarray, tol: float = 1e-12, r_cap: int = 1000) -> np.ndarray:
    """Vectorized ``bivar_abs_tail`` over many correlations at one threshold."""
    if t < 0:
        raise DomainError(f"bivar_abs_tail requires t >= 0, got {t!r}")
    rhos = np.asarray(rhos, dtype=float)
    if rhos.size and np.max(np.abs(rhos)) >= 1.0:
        raise DomainError("bivar_abs_tail requires |rho| < 1")
    sf = float(_sf_scalar(t))
    base = (2.0 * sf) ** 2
    phi2 = math.exp(-t * t) / (2.0 * math.pi)
    rho2 = rhos * rhos
    rho_pow = rho2.copy()          # rho^r at even r, starting r = 2
    total = np.zeros_like(rhos)
    h_prev, h_curr = 1.0, t        # h_0, h_1
    r = 2
    # Cramer envelope |h_r(t)| <= kappa e^{t^2/4}: the residual past order r is
    # below env * rho^{r+2} / ((r+2)(1 - rho^2)), a rigorous stopping bound
    env = (2.0 / math.pi) * 1.18 * math.exp(-0.5 * t * t)
    rmax_abs = float(np.max(rho2)) if rhos.size else 0.0
    while r <= r_cap:
        term = rho_pow * (h_curr * h_curr / r)
        total += term
        if rhos.size == 0:
            break
        scale = max(base, 4.0 * phi2 * float(total.max()), 1e-300)
        residual = env * rmax_abs ** (r // 2 + 1) / ((r + 2) * (1.0 - rmax_abs))
        if residual <= tol * scale:
            break
        for rr in (r, r + 1):      # advance h by two orders
            h_prev, h_curr = h_curr, t * h_curr / math.sqrt(rr) - h_prev * math.sqrt((rr - 1) / rr)
        rho_pow *= rho2
        r += 2
    return base + 4.0 * phi2 * total


def bivar_abs_tail_quadrature(t: float, rho: float) -> float:
    """Oracle: the same probability by 2-D adaptive quadrature over the four
    tail quadrants.  Slow; intended for tests only."""
    if t < 0:
        raise DomainError(f"bivar_abs_tail requires t >= 0, got {t!r}")
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


def check_correlation(R: np.ndarray, eig_tol: float = 1e-8) -> np.ndarray:
    """Validate a correlation matrix: square, symmetric, unit diagonal, PSD
    within ``-eig_tol``.  Returns the matrix as a float array."""
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise DomainError(f"correlation matrix must be square, got shape {R.shape}")
    if not np.allclose(R, R.T, atol=1e-10):
        raise DomainError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(R), 1.0, atol=1e-8):
        raise DomainError("correlation matrix must have unit diagonal")
    if np.max(np.abs(R)) > 1.0 + 1e-8:
        raise DomainError("correlation entries must lie in [-1, 1]")
    if R.shape[0] > 1:
        lo = float(np.linalg.eigvalsh(R)[0])
        if lo < -eig_tol:
            raise DomainError(f"correlation matrix not PSD (min eigenvalue {lo:.3e})")
    return R


def bvn_cdf(x: float, y: float, rho: float) -> float:
    """Bivariate standard normal CDF, Gauss-Legendre on the correlation path.

    Accurate to ~1e-14 for |rho| <= 0.999; perfectly correlated limits are
    handled in closed form.
    """
    if x <= -38.0 or y <= -38.0:
        return 0.0
    if rho >= 1.0 - 1e-14:
        return float(ndtr(min(x, y)))
    if rho <= -1.0 + 1e-14:
        return float(max(0.0, ndtr(x) - ndtr(-y)))
    r = 0.5 * rho * (_GL_NODES + 1.0)
    det = 1.0 - r * r
    dens = np.exp(-(x * x - 2.0 * r * x * y + y * y) / (2.0 * det)) / (2.0 * np.pi * np.sqrt(det))
    val = float(ndtr(x) * ndtr(y) + 0.5 * rho * np.dot(_GL_WEIGHTS, dens))
    return min(1.0, max(0.0, val))


def _cholesky_reordered(lower, upper, sigma):
    """Genz variable-reordering Cholesky: integrate the most constraining
    coordinates first.  Returns (L, lower, upper) in the new order."""
    d = len(lower)
    a = np.array(lower, dtype=float)
    b = np.array(upper, dtype=float)
    S = np.array(sigma, dtype=float)
    L = np.zeros((d, d))
    y = np.zeros(d)
    for i in range(d):
        best, bestj = np.inf, i
        for j in range(i, d):
            sj = S[j, j] - L[j, :i] @ L[j, :i]
            if sj <= 0:
                continue
            s = math.sqrt(sj)
            mu = L[j, :i] @ y[:i]
            p = ndtr((b[j] - mu) / s) - ndtr((a[j] - mu) / s)
            if p < best:
                best, bestj = p, j
        j = bestj
        if j != i:
            S[[i, j]] = S[[j, i]]
            S[:, [i, j]] = S[:, [j, i]]
            L[[i, j]] = L[[j, i]]
            a[[i, j]] = a[[j, i]]
            b[[i, j]] = b[[j, i]]
        sj = S[i, i] - L[i, :i] @ L[i, :i]
        L[i, i] = math.sqrt(max(sj, 1e-14))
        for k in range(i + 1, d):
            L[k, i] = (S[k, i] - L[k, :i] @ L[i, :i]) / L[i, i]
        mu = L[i, :i] @ y[:i]
        lo = (a[i] - mu) / L[i, i]
        hi = (b[i] - mu) / L[i, i]
        plo, phi_ = ndtr(lo), ndtr(hi)
        y[i] = ((math.exp(-0.5 * lo * lo) - math.exp(-0.5 * hi * hi)) / _SQRT_2PI
                / max(phi_ - plo, 1e-300))
    return L, a, b


def mvn_rect(lower, upper, sigma, npts: int = 8192, nshift: int = 8,
             return_error: bool = False):
    """Pr(lower <= Z <= upper) for Z ~ MVN(0, sigma), dimension <= 12.

    Deterministic: Genz sequential transform over a tent-mapped Richtmyer
    lattice with a fixed table of shifts.  Dimensions 1 and 2 use closed /
    Gauss-Legendre forms instead.  The spread across shifts provides an
    effective-error estimate.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    d = lower.shape[0]
    if d == 1:
        p = float(ndtr(upper[0] / math.sqrt(sigma[0, 0])) - ndtr(lower[0] / math.sqrt(sigma[0, 0])))
        return (p, 0.0) if return_error else p
    if d == 2:
        s1, s2 = math.sqrt(sigma[0, 0]), math.sqrt(sigma[1, 1])
        r = sigma[0, 1] / (s1 * s2)
        x0, x1 = lower[0] / s1, upper[0] / s1
        y0, y1 = lower[1] / s2, upper[1] / s2
        p = (bvn_cdf(x1, y1, r) - bvn_cdf(x0, y1, r)
             - bvn_cdf(x1, y0, r) + bvn_cdf(x0, y0, r))
        p = min(1.0, max(0.0, p))
        return (p, 1e-14) if return_error else p
    if d > 12:
        raise DomainError(f"mvn_rect supports dimension <= 12, got {d}")

    L, a, b = _cholesky_reordered(lower, upper, sigma)
    q = _SQRT_PRIMES[: d - 1]
    k = np.arange(1, npts + 1)[:, None]
    base = np.modf(k * q)[0]
    ests = np.empty(nshift)
    for s in range(nshift):
        w = np.abs(2.0 * np.modf(base + _LATTICE_SHIFTS[s, : d - 1])[0] - 1.0)
        dcur = np.full(npts, ndtr(a[0] / L[0, 0]))
        ecur = np.full(npts, ndtr(b[0] / L[0, 0]))
        f = ecur - dcur
        y = np.zeros((npts, d - 1))
        for i in range(1, d):
            z = np.clip(dcur + w[:, i - 1] * (ecur - dcur), 1e-16, 1.0 - 1e-16)
            y[:, i - 1] = ndtri(z)
            mu = y[:, :i] @ L[i, :i]
            dcur = ndtr((a[i] - mu) / L[i, i])
            ecur = ndtr((b[i] - mu) / L[i, i])
            f = f * (ecur - dcur)
        ests[s] = f.mean()
    p = float(np.clip(ests.mean(), 0.0, 1.0))
    if return_error:
        return p, float(ests.std(ddof=1) / math.sqrt(nshift))
    return p


def _dedup_perfect(z: float, R: np.ndarray):
    """Reduce coordinates tied by |rho| = 1.  Returns (lower, upper, R_sub)."""
    d = R.shape[0]
    keep: list[int] = []
    lower: list[float] = []
    upper: list[float] = []
    for i in range(d):
        merged = False
        for idx, j in enumerate(keep):
            if R[i, j] >= 1.0 - 1e-12:
                merged = True
                break
            if R[i, j] <= -1.0 + 1e-12:
                # Z_i = -Z_j: constraint Z_i <= z becomes Z_j >= -z
                lower[idx] = max(lower[idx], -z)
                merged = True
                break
        if not merged:
            keep.append(i)
            lower.append(-38.0)
            upper.append(z)
    return np.array(lower), np.array(upper), R[np.ix_(keep, keep)]


def mvn_cdf_small(z: float, R: np.ndarray, npts: int = 16384,
                  return_error: bool = False):
    """Pr(Z_i <= z for all i) for Z ~ MVN(0, R), dimension <= 4.

    Deterministic; absolute error well under 1e-5.  Perfectly correlated
    coordinate pairs are collapsed before integration, which covers the
    degenerate single-factor case exactly.
    """
    R = check_correlation(R)
    if R.shape[0] > 4:
        raise DomainError(f"mvn_cdf_small supports dimension <= 4, got {R.shape[0]}")
    if not math.isfinite(z):
        raise DomainError(f"mvn_cdf_small requires finite z, got {z!r}")
    lower, upper, Rsub = _dedup_perfect(z, R)
    dsub = Rsub.shape[0]
    if dsub > 1:
        lo_eig = float(np.linalg.eigvalsh(Rsub)[0])
        if lo_eig < 1e-10:
            raise DomainError("mvn_cdf_small: correlation matrix is singular "
                              "beyond perfect-correlation duplicates")
    if np.any(lower >= upper):
        p, err = 0.0, 0.0
    else:
        p, err = mvn_rect(lower, upper, Rsub, npts=npts, nshift=8, return_error=True)
    if return_error:
        return p, err
    return p


def sym_eigvals(M: np.ndarray, sym_tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, non-increasing order."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"sym_eigvals requires a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.max(np.abs(M - M.T)) > sym_tol * scale:
        raise DomainError("sym_eigvals requires a symmetric matrix")
    vals = np.linalg.eigvalsh(0.5 * (M + M.T))
    return vals[::-1]


def find_root(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10) -> float:
    """Root of a continuous function on a bracketing interval [lo, hi],
    within tol plus a few ulps."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}")
    sign = 1.0 if flo < 0.0 else -1.0            # the search needs f increasing
    root = _bracketed_roots(lambda x, k: np.array([sign * f(float(x[0]))]),
                            np.array([float(lo)]), np.array([float(hi)]),
                            np.array([sign * flo]), np.array([sign * fhi]), xtol=tol)
    return float(root[0])


# a search takes 7 to 14 steps where f is smooth and up to about 25 where
# rounding makes it step; past _INTERP_STEPS it bisects, and the remaining
# steps close any bracket within 2^70 of its tolerance
_INTERP_STEPS = 30
_ROOT_MAX_STEPS = 100


def _bracketed_roots(f, a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
                     xtol: float = 0.0, ftol: float = 0.0) -> np.ndarray:
    """Roots of the increasing functions f(., k) bracketed by fa < 0 <= fb.

    Vectorized Chandrupatla iteration: inverse quadratic interpolation where
    the last three points admit it, bisection otherwise, each step kept a
    tolerance away from the bracket ends.  ``f(x, k)`` evaluates at points x
    for entry positions k.  An entry stops at its best point so far once its
    bracket is narrower than xtol plus a few ulps of the root, or once |f|
    there is at most ftol; entries still open after _INTERP_STEPS steps are
    bisected.
    """
    eps = np.finfo(float).eps
    root = np.empty(a.size)
    k = np.arange(a.size)
    # x1 is the newest point, x2 the other bracket end, x3 the point dropped
    x1, f1, x2, f2 = a, fa, b, fb
    with np.errstate(divide="ignore", invalid="ignore"):
        step = f1 / (f1 - f2)                    # first step by false position
    step = np.where((step > 0.0) & (step < 1.0), step, 0.5)
    for it in range(_ROOT_MAX_STEPS):
        xt = x1 + step * (x2 - x1)
        ft = f(xt, k)
        same = (ft >= 0.0) == (f1 >= 0.0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
        best1 = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(best1, x1, x2), np.where(best1, f1, f2)
        with np.errstate(divide="ignore"):
            tl = (2.0 * eps * np.abs(xm) + 0.5 * xtol) / np.abs(x2 - x1)
        done = (tl > 0.5) | (np.abs(fm) <= ftol)
        root[k[done]] = xm[done]
        live = ~done
        if not live.any():
            return root
        k, tl = k[live], tl[live]
        x1, f1, x2, f2, x3, f3 = (v[live] for v in (x1, f1, x2, f2, x3, f3))
        if it + 1 >= _INTERP_STEPS:
            step = np.full(k.size, 0.5)
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            iqi = (f1 / (f2 - f1) * f3 / (f2 - f3)
                   + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2))
        use = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & np.isfinite(iqi)
        step = np.clip(np.where(use, iqi, 0.5), tl, 1.0 - tl)
    raise NumericalError("bracketed root search did not converge")
