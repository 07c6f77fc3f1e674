"""Gaussian kernels.

The standard normal survival function, normalized Hermite
polynomials, the joint absolute tail of a bivariate normal at many
correlations, the correlation-matrix check, a deterministic integrator for
low-dimension multivariate normal rectangles, and bracketed root-finding.
The slow scalar references these kernels are tested against live with the
tests.  Everything here is a pure function; the two caches, the
Gauss-Legendre rule of ``bvn_cdf`` and the lattice points of
``mvn_cdf_small``, are built once and never changed, so concurrent use is
unrestricted.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, roots_legendre

from .errors import BracketError, DomainError, NumericalError

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Richtmyer generators (fractional parts of k*sqrt(prime)) for the lattice
# integrator, plus a fixed table of shifts so results never depend on an RNG.
_SQRT_PRIMES = np.sqrt(np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37], dtype=float))
_LATTICE_SHIFTS = np.random.default_rng(20240501).uniform(size=(12, 12))

PAIR_SERIES_RTOL = 1e-12
PAIR_SERIES_MAX_ORDER = 1000
# Thresholds per call from which ``bivar_abs_tail_many`` builds its
# coefficient rows by one numpy recurrence across thresholds (measured
# crossover, README), and thresholds per recurrence and Horner pass: at most
# 512 x PAIR_SERIES_MAX_ORDER / 2 coefficients (2 MiB) at a time
PAIR_VECTOR_MIN_THRESHOLDS = 16
PAIR_VECTOR_MAX_THRESHOLDS = 512
# lattice points per shift of the small-dimension normal CDF; its points
# are kept once built for this many shifts and coordinates (3 MiB), enough
# for the 4-dimensional copula
MVN_SMALL_NPTS = 16384
_CACHED_SHIFTS = 8
_CACHED_COORDS = 3


def norm_sf(t):
    """Standard normal survival function, vectorized; the CDF is norm_sf(-t).

    Keeps relative accuracy deep into the tail: erfc up to t = 30,
    exp(log-scale survival) beyond, where erfc's internal exponential would
    underflow (near t = 37.6) long before the value itself leaves the
    subnormal range.
    """
    t = np.asarray(t, dtype=float)
    out = ndtr(-t)
    deep = t > 30.0
    if deep.any():
        out = np.where(deep, np.exp(log_ndtr(-t)), out)
    return out


def hermite_normalized(r_max: int, t):
    """h_r(t) = H_r(t) / sqrt(r!) for r = 0 .. r_max - 1, vectorized in t.

    The normalized recurrence stays bounded (Cramer's inequality), so long
    series over large arguments never overflow.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((r_max,) + t.shape)
    h = out.reshape(r_max, -1)          # one row per order, filled in place
    x = t.reshape(-1)
    h[0] = 1.0
    if r_max > 1:
        h[1] = x
    for r in range(1, r_max - 1):
        nxt = np.multiply(x, h[r], out=h[r + 1])
        nxt /= math.sqrt(r + 1)
        nxt -= h[r - 1] * math.sqrt(r / (r + 1))
    return out


def bivar_abs_tail_many(t, rhos: np.ndarray) -> np.ndarray:
    """Pr(|Z1| >= t, |Z2| >= t) for a standard bivariate normal, at each
    threshold in ``t`` and each correlation in ``rhos`` (every |rho| < 1).
    A scalar t gives one value per correlation; a 1-D t gives an array of
    shape (t.size, rhos.size), one row per threshold.

    Evaluated as (2 * sf(t))^2 plus the even-order Hermite covariance series.
    Odd orders cancel under the absolute value, which also makes the result
    even in rho.  The series has nonnegative terms, so the sum keeps relative
    accuracy; terms are added until they fall below PAIR_SERIES_RTOL relative
    (past the envelope peak near r = t^2) or PAIR_SERIES_MAX_ORDER is reached.

    The series is a polynomial in x = rho^2 with coefficients h_{r-1}(t)^2 / r
    at even r.  Its terms are nonnegative and increase with x, so the pair
    with the largest rho^2 has the largest partial sums: each threshold's
    coefficients and stopping order are found on that pair alone, by a
    Python loop per threshold below PAIR_VECTOR_MIN_THRESHOLDS thresholds and
    by one numpy recurrence across thresholds from it on; both take the same
    float operations, so a threshold's row does not depend on the call it
    arrives in.  The thresholds' polynomials are then evaluated over all
    pairs by one Horner pass per PAIR_VECTOR_MAX_THRESHOLDS thresholds, the
    shorter coefficient rows zero-padded at the high-order end, which leaves
    their values bit-identical.
    """
    ts = np.asarray(t, dtype=float)
    if (ts < 0).any():
        raise DomainError(f"bivar_abs_tail_many requires t >= 0, got {t!r}")
    rhos = np.asarray(rhos, dtype=float)
    if rhos.size == 0:
        return np.empty(ts.shape + rhos.shape)
    x = np.square(rhos.ravel())
    x_max = float(np.max(x))
    if x_max >= 1.0:               # rounding keeps rho^2 < 1 for |rho| < 1
        raise DomainError("bivar_abs_tail_many requires |rho| < 1")
    t_list, bases, scales = _series_terms(ts.ravel())
    n = len(t_list)
    build = _series_coefs_many if n >= PAIR_VECTOR_MIN_THRESHOLDS else _series_coefs
    acc = np.empty((n, x.size))
    for lo in range(0, n, PAIR_VECTOR_MAX_THRESHOLDS):
        part = slice(lo, lo + PAIR_VECTOR_MAX_THRESHOLDS)
        coef = build(t_list[part], bases[part], scales[part], x_max)
        scale, base = np.array(scales[part]), np.array(bases[part])
        if n == 1:
            # one threshold runs on 1-D views: with a (1, n) array the large_set
            # benchmark read 3.1% more wall_ref_s (10 alternating pairs, 8 higher)
            view, coef, scale, base = acc[0], coef[0], scale[0], base[0]
        else:
            view, coef, scale, base = acc[part], coef.T[..., None], scale[:, None], base[:, None]
        view[...] = coef[-1]
        for c in coef[-2::-1]:
            np.multiply(view, x, out=view)
            view += c
        view *= x                  # the series starts at x^1
        view *= scale
        view += base
    return acc.reshape(ts.shape + rhos.shape)


def _series_terms(ts: np.ndarray) -> tuple[list, list, list]:
    """The thresholds of the pair series, their (2 sf(t))^2 and their
    4 phi(t)^2, as lists of Python floats."""
    t_list = ts.tolist()
    bases = [(2.0 * s) ** 2 for s in norm_sf(ts).tolist()]
    scales = [4.0 * (math.exp(-t_k * t_k) / (2.0 * math.pi)) for t_k in t_list]
    return t_list, bases, scales


def _series_envelope(t_k: float) -> float:
    """Cramer envelope |h_r(t)| <= kappa e^{t^2/4}: the residual of the
    series past order r is below envelope * rho^{r+2} / ((r+2)(1 - rho^2)),
    a rigorous stopping bound."""
    return (2.0 / math.pi) * 1.18 * math.exp(-0.5 * t_k * t_k)


def _series_coefs(t_list: list, bases: list, scales: list, x_max: float) -> np.ndarray:
    """The pair series' coefficient rows h_{r-1}(t)^2 / r, r = 2, 4, ..., up
    to each threshold's stopping order at x_max, zero-padded into one array
    with a row per threshold; one Python loop per threshold.  ``bases``
    and ``scales`` are those of ``_series_terms``."""
    rows = []
    for t_k, base, scale_k in zip(t_list, bases, scales):
        env = _series_envelope(t_k)
        coefs: list[float] = []
        x_pow, total_max = x_max, 0.0  # x_max^(r/2) and the series at x_max
        h_prev, h_curr = 1.0, t_k      # h_0, h_1
        r = 2
        while r <= PAIR_SERIES_MAX_ORDER:
            coefs.append(h_curr * h_curr / r)
            total_max += x_pow * coefs[-1]
            scale = max(base, scale_k * total_max, 1e-300)
            residual = env * x_max ** (r // 2 + 1) / ((r + 2) * (1.0 - x_max))
            if residual <= PAIR_SERIES_RTOL * scale:
                break
            for rr in (r, r + 1):      # advance h by two orders
                h_prev, h_curr = h_curr, (t_k * h_curr / math.sqrt(rr)
                                          - h_prev * math.sqrt((rr - 1) / rr))
            x_pow *= x_max
            r += 2
        rows.append(coefs)
    coef = np.zeros((len(rows), max(map(len, rows))))
    for k, coefs in enumerate(rows):
        coef[k, :len(coefs)] = coefs
    return coef


def _series_coefs_many(t_list: list, bases: list, scales: list, x_max: float) -> np.ndarray:
    """``_series_coefs`` by one numpy recurrence across thresholds, each
    taking the scalar loop's float operations in its order; a threshold
    leaves the recurrence at its stopping order."""
    t = np.array(t_list)
    live = np.arange(t.size)
    env = np.array([_series_envelope(t_k) for t_k in t_list])
    base, scale_k = np.array(bases), np.array(scales)
    h_prev, h_curr = np.ones(t.size), t.copy()
    total_max = np.zeros(t.size)
    cols: list[tuple[np.ndarray, np.ndarray]] = []   # (rows, coefficients) per order
    x_pow, r = x_max, 2
    while r <= PAIR_SERIES_MAX_ORDER:
        c = h_curr * h_curr / r
        cols.append((live, c))
        total_max += x_pow * c
        scale = np.maximum(np.maximum(base, scale_k * total_max), 1e-300)
        residual = env * x_max ** (r // 2 + 1) / ((r + 2) * (1.0 - x_max))
        going = ~(residual <= PAIR_SERIES_RTOL * scale)   # the loop's test, negated
        if not going.all():
            live, t, env, base, scale_k, h_prev, h_curr, total_max = (
                v[going] for v in (live, t, env, base, scale_k, h_prev, h_curr, total_max))
            if not live.size:
                break
        for rr in (r, r + 1):
            h_prev, h_curr = h_curr, t * h_curr / math.sqrt(rr) - h_prev * math.sqrt((rr - 1) / rr)
        x_pow *= x_max
        r += 2
    coef = np.zeros((len(cols), len(t_list)))
    for j, (rows, c) in enumerate(cols):
        coef[j, rows] = c
    return coef.T


def check_correlation(R: np.ndarray) -> np.ndarray:
    """Validate a correlation matrix: square, finite, symmetric within 1e-10,
    unit diagonal within 1e-8, entries in [-1, 1] within 1e-8, and PSD within
    -1e-8: its symmetric part plus 1e-8 I has a Cholesky factor.  Returns the
    matrix as a float array."""
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1] or R.size == 0:
        raise DomainError(f"correlation matrix must be square and non-empty, got shape {R.shape}")
    if not np.all(np.isfinite(R)):
        raise DomainError("correlation matrix entries must be finite")
    work = R - R.T                  # the one d x d temporary of the check
    if np.abs(work, out=work).max() > 1e-10:
        raise DomainError("correlation matrix must be symmetric")
    if np.abs(np.diag(R) - 1.0).max() > 1e-8:
        raise DomainError("correlation matrix must have unit diagonal")
    if np.abs(R, out=work).max() > 1.0 + 1e-8:
        raise DomainError("correlation entries must lie in [-1, 1]")
    np.add(R, R.T, out=work)
    work *= 0.5
    work.flat[::R.shape[0] + 1] += 1e-8
    try:
        np.linalg.cholesky(work)
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(work)[0] - 1e-8
        raise DomainError(f"correlation matrix not PSD (min eigenvalue {low:.3e})") from None
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
    nodes, weights = _gauss_legendre()
    r = 0.5 * rho * (nodes + 1.0)
    det = 1.0 - r * r
    dens = np.exp(-(x * x - 2.0 * r * x * y + y * y) / (2.0 * det)) / (2.0 * np.pi * np.sqrt(det))
    val = float(ndtr(x) * ndtr(y) + 0.5 * rho * np.dot(weights, dens))
    return min(1.0, max(0.0, val))


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """``bvn_cdf``'s 96-point Gauss-Legendre rule, built on first use:
    ``roots_legendre`` loads ``scipy.linalg``, which nothing else needs."""
    return roots_legendre(96)


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


def mvn_rect(lower, upper, sigma, npts: int = 8192, nshift: int = 8) -> float:
    """Pr(lower <= Z <= upper) for Z ~ MVN(0, sigma), dimension <= 12.

    Deterministic: Genz sequential transform over a tent-mapped Richtmyer
    lattice with a fixed table of shifts.  Dimensions 1 and 2 use closed /
    Gauss-Legendre forms instead, which ignore ``npts`` and ``nshift``.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    d = lower.shape[0]
    if d == 1:
        s = math.sqrt(sigma[0, 0])
        return float(ndtr(upper[0] / s) - ndtr(lower[0] / s))
    if d == 2:
        s1, s2 = math.sqrt(sigma[0, 0]), math.sqrt(sigma[1, 1])
        r = sigma[0, 1] / (s1 * s2)
        x0, x1 = lower[0] / s1, upper[0] / s1
        y0, y1 = lower[1] / s2, upper[1] / s2
        p = (bvn_cdf(x1, y1, r) - bvn_cdf(x0, y1, r)
             - bvn_cdf(x1, y0, r) + bvn_cdf(x0, y0, r))
        return min(1.0, max(0.0, p))
    if d > 12:
        raise DomainError(f"mvn_rect supports dimension <= 12, got {d}")

    return _lattice_integral(*_cholesky_reordered(lower, upper, sigma), npts, nshift)[0]


def _lattice_integral(L: np.ndarray, a: np.ndarray, b: np.ndarray, npts: int,
                      nshift: int) -> tuple[float, float]:
    """Pr(a <= L W <= b) for W ~ MVN(0, I) and lower-triangular L, with the
    coordinates already in integration order (``_cholesky_reordered``).

    The Genz sequential transform over ``nshift`` shifts of an ``npts``-point
    tent-mapped Richtmyer lattice.  Returns the mean estimate and the
    standard error of the shifts' spread.
    """
    d = L.shape[0]
    if (npts, nshift) == (MVN_SMALL_NPTS, _CACHED_SHIFTS) and d - 1 <= _CACHED_COORDS:
        points = _small_lattice_points()
    else:
        base = _lattice_base(npts, d - 1)
        points = (_shifted_points(base, s) for s in range(nshift))
    ests = np.empty(nshift)
    # a lower limit of -inf has CDF 0 whatever the shift, so its ndtr, and
    # the adding and subtracting of that 0, are skipped
    open_lo = np.isneginf(a)
    # the first coordinate's limits are the same at every point
    d0, e0 = ndtr(a[0] / L[0, 0]), ndtr(b[0] / L[0, 0])
    y = np.empty((npts, d - 1))
    for s, w in enumerate(points):
        dcur, ecur = d0, e0
        f = np.full(npts, e0 - d0)
        for i in range(1, d):
            z = w[i - 1] * ecur if open_lo[i - 1] else dcur + w[i - 1] * (ecur - dcur)
            np.clip(z, 1e-16, 1.0 - 1e-16, out=z)
            ndtri(z, out=y[:, i - 1])
            mu = y[:, :i] @ L[i, :i]
            if not open_lo[i]:
                dcur = np.subtract(a[i], mu)
                dcur /= L[i, i]
                ndtr(dcur, out=dcur)
            ecur = np.subtract(b[i], mu, out=mu)
            ecur /= L[i, i]
            ndtr(ecur, out=ecur)
            f *= ecur if open_lo[i] else ecur - dcur
        ests[s] = f.mean()
    return float(np.clip(ests.mean(), 0.0, 1.0)), float(ests.std(ddof=1) / math.sqrt(nshift))


def _lattice_base(npts: int, ncoord: int) -> np.ndarray:
    """The unshifted ``npts``-point Richtmyer lattice in its first ``ncoord``
    coordinates, one row per coordinate."""
    base = _SQRT_PRIMES[:ncoord, None] * np.arange(1, npts + 1)
    base -= np.floor(base)                      # exact fractional parts
    return base


def _shifted_points(base: np.ndarray, s: int) -> np.ndarray:
    """The lattice ``base`` under shift s, tent-mapped."""
    # base and shift lie in [0, 1), so the fractional part of their sum
    # drops 1 where it reaches 1, exactly
    w = base + _LATTICE_SHIFTS[s, : base.shape[0], None]
    w -= w >= 1.0
    w *= 2.0
    w -= 1.0
    return np.abs(w, out=w)


@cache
def _small_lattice_points() -> np.ndarray:
    """The tent-mapped points of ``mvn_cdf_small``'s lattice, built on first
    use and kept, read-only: shape (shift, coordinate, point)."""
    base = _lattice_base(MVN_SMALL_NPTS, _CACHED_COORDS)
    points = np.stack([_shifted_points(base, s) for s in range(_CACHED_SHIFTS)])
    points.setflags(write=False)
    return points


def _dedup_perfect(z: float, R: np.ndarray):
    """Reduce coordinates tied by |rho| within 1e-9 of 1.  Returns (lower,
    upper, R_sub), with -inf for a lower limit left open.

    Merging Z_i into Z_j at correlation r = 1 - delta moves the CDF by at
    most Pr(Z_j <= z < Z_i) <= arccos(r) / (2 pi), which is below 7.2e-6 at
    delta = 1e-9 and under the lattice's own measured error (see
    ``mvn_cdf_small``).  It keeps a pair whose 2 x 2 block would fail
    ``mvn_cdf_small``'s 1e-10 singularity test (its least eigenvalue is
    delta) out of the integral, with a 10x margin; bootstrap estimates of
    two components that are one function of |Z| (perfect LD) sit at delta
    around 1e-12 to 1e-10."""
    d = R.shape[0]
    keep: list[int] = []
    lower: list[float] = []
    upper: list[float] = []
    for i in range(d):
        merged = False
        for idx, j in enumerate(keep):
            if R[i, j] >= 1.0 - 1e-9:
                merged = True
                break
            if R[i, j] <= -1.0 + 1e-9:
                # Z_i = -Z_j: constraint Z_i <= z becomes Z_j >= -z
                lower[idx] = max(lower[idx], -z)
                merged = True
                break
        if not merged:
            keep.append(i)
            lower.append(-np.inf)
            upper.append(z)
    return np.array(lower), np.array(upper), R[np.ix_(keep, keep)]


def mvn_cdf_small(z: float, R) -> float:
    """Pr(Z_i <= z for all i) for Z ~ MVN(0, R), dimension <= 4.

    ``R`` is an array or an ``exceedance.CorrelationModel``, which is not
    validated again.  Deterministic.  Its absolute error reaches 2.2e-5:
    at exchangeable -0.3 (4 x 4) and z = ndtri(1 - 0.0025), 1 - cdf reads
    1.002089e-2, above the union bound 4 sf(z) = 1e-2 and 2.16e-5 above the
    lower bound 4 sf(z) - 6 Pr(Z1 > z, Z2 > z) = 9.99930e-3 (``bvn_cdf``);
    a 2^20-point, 12-shift lattice gives 9.99901e-3.  Coordinate pairs
    within 1e-9 of perfect correlation are collapsed before integration
    (``_dedup_perfect``), which covers the degenerate single-factor case
    exactly.
    """
    from .exceedance import correlation_model    # exceedance imports this module

    R = correlation_model(R).matrix
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
        return 0.0
    return mvn_rect(lower, upper, Rsub, npts=MVN_SMALL_NPTS)


def find_root(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10,
              ftol: float = 0.0) -> float:
    """Root of a continuous function on a bracketing interval [lo, hi],
    within tol plus a few ulps, or the first point found where |f| <= ftol."""
    flo, fhi = f(lo), f(hi)
    if abs(flo) <= ftol:
        return lo
    if abs(fhi) <= ftol:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}")
    sign = 1.0 if flo < 0.0 else -1.0            # the search needs f increasing
    root = _bracketed_roots(lambda x, k: np.array([sign * f(float(x[0]))]),
                            np.array([float(lo)]), np.array([float(hi)]),
                            np.array([sign * flo]), np.array([sign * fhi]), xtol=tol, ftol=ftol)
    return float(root[0])


# a boundary-inversion entry, stopped at the objective's rounding, takes 2 to
# 16 steps (mean 7.9 over round 0 of the three perfbench workloads); past
# _INTERP_STEPS it bisects, and the remaining steps close any bracket within
# 2^70 of its tolerance
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
    there is at most ftol, a scalar or one tolerance per entry; entries still
    open after _INTERP_STEPS steps are bisected.
    """
    eps = np.finfo(float).eps
    ftol = np.broadcast_to(ftol, a.shape)
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
        done = (tl > 0.5) | (np.abs(fm) <= ftol[k])
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
