"""Boundary-crossing p-values for supremum statistics on correlated Gaussians.

An observed statistic g is inverted index by index into monotone boundary
points b_1 <= ... <= b_d on the absolute order statistics.  The p-value is
the probability that any |Z|_(j) exceeds b_j, evaluated by a recursion over
thresholds whose conditional exceedance-count law is approximated by a
moment-matched Extended Beta-Binomial.  A small-d exact evaluator based on
rectangle algebra serves as an oracle, and rejection regions are produced by
root-finding the p-value in g.

The recursion accumulates the probability mass that leaks past each
constraint instead of computing 1 - Pr(no crossing), so small p-values keep
relative accuracy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, ndtri

from . import gauss, setstats
from .ebb import _log_factor_prefixes, match_gamma
from .errors import DomainError, NumericalError, SizeError
from .exceedance import CorrPowerProfile, corr_powers, DEFAULT_R_MAX

PVALUE_FLOOR = 1e-16
MONOTONE_REPAIR_FLAG = 1e-6


@dataclass(frozen=True)
class BoundaryVector:
    """Non-decreasing thresholds b_1 .. b_d on |Z|_(1) .. |Z|_(d).

    Entries may be +inf (vacuous constraints); all vacuous entries precede
    the finite ones.
    """

    b: np.ndarray
    diagnostics: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1 or b.size < 1:
            raise DomainError("BoundaryVector requires a non-empty vector")
        fin = np.isfinite(b)
        if np.any(fin) and np.any(~fin[np.argmax(fin):]):
            raise DomainError("infinite bounds must all precede the finite bounds")
        if np.any(b[fin] < 0):
            raise DomainError("bounds must be nonnegative")
        if np.any(np.diff(b[fin]) < -1e-9):
            raise DomainError("bounds must be non-decreasing")
        object.__setattr__(self, "b", b)

    @property
    def d(self) -> int:
        return self.b.size

    @property
    def finite_from(self) -> int:
        """1-based index of the first finite bound, or d+1 if none."""
        fin = np.isfinite(self.b)
        return int(np.argmax(fin)) + 1 if np.any(fin) else self.d + 1


@dataclass(frozen=True)
class CrossingTable:
    """Working probabilities of the recursion, one row per threshold stage.

    ``q[k][a]`` is Pr(S(t_k) = a, all earlier constraints held); ``leaks[k]``
    is the mass that violated the stage-k constraint.
    """

    thresholds: np.ndarray
    caps: np.ndarray
    q: tuple[np.ndarray, ...]
    leaks: np.ndarray
    diagnostics: tuple[str, ...]


def _stages(bounds: BoundaryVector):
    """Distinct finite thresholds with their tightest allowed exceedance
    count.  A bound at (1-based) index i constrains S(b_i) <= d - i; tied
    thresholds keep the smallest cap."""
    d = bounds.d
    thresholds: list[float] = []
    caps: list[int] = []
    for i in range(d):
        t = bounds.b[i]
        if not np.isfinite(t):
            continue
        cap = d - (i + 1)
        if thresholds and t <= thresholds[-1] + 1e-13:
            caps[-1] = min(caps[-1], cap)
        else:
            thresholds.append(float(t))
            caps.append(cap)
    return np.array(thresholds), np.array(caps, dtype=int)


def _pair_tails(rhos: np.ndarray, t: float, lam_single: float) -> np.ndarray:
    """Pr(|Z_k| >= t, |Z_l| >= t) per off-diagonal pair.  Perfectly
    (anti)correlated pairs share one absolute value, so their joint tail is
    the single-coordinate tail."""
    out = np.empty_like(rhos)
    perfect = np.abs(rhos) >= 1.0 - 1e-12
    if np.any(~perfect):
        out[~perfect] = gauss.bivar_abs_tail_many(t, rhos[~perfect])
    out[perfect] = lam_single
    return np.clip(out, 0.0, 1.0)


def crossing_pvalue(bounds: BoundaryVector, Sigma: np.ndarray,
                    return_table: bool = False):
    """Pr(any |Z|_(j) > b_j) for Z ~ MVN(0, Sigma) by the conditional-EBB
    threshold recursion.

    Parameters
    ----------
    bounds : BoundaryVector
        Monotone thresholds; +inf entries are skipped (their constraints are
        vacuous) and the allowed exceedance counts adjust accordingly.
    Sigma : array
        Correlation matrix of the marginal statistics.
    return_table : bool
        Also return the CrossingTable of working probabilities.
    """
    Sigma = gauss.check_correlation(Sigma)
    d = Sigma.shape[0]
    if bounds.d != d:
        raise DomainError(f"bounds dimension {bounds.d} != correlation dimension {d}")
    thresholds, caps = _stages(bounds)
    flags: list[str] = list(bounds.diagnostics)
    if thresholds.size == 0:
        p = 0.0
        if return_table:
            return p, CrossingTable(thresholds, caps, (), np.array([]), tuple(flags))
        return p
    if thresholds[0] <= 0.0:
        # S(0) = d always; a cap below d at threshold zero is crossed surely
        p = 1.0 if caps[0] < d else 0.0
        if return_table:
            return p, CrossingTable(thresholds, caps, (), np.array([p]), tuple(flags))
        return p

    iu = np.triu_indices(d, k=1)
    rhos = Sigma[iu]
    npairs = rhos.size

    log_fact = gammaln(np.arange(d + 1) + 1.0)  # log m! for m = 0 .. d
    sf_prev = 0.5                               # sf at t_0 = 0
    tails_prev = np.ones(npairs)                # pair tails at t_0 = 0
    cap_prev = d
    q = np.zeros(d + 1)
    q[d] = 1.0                                  # S(0) = d with certainty
    leak_total = 0.0
    q_rows: list[np.ndarray] = []
    leaks: list[float] = []

    for t_k, cap_k in zip(thresholds, caps):
        sf_k = float(gauss.norm_sf(t_k))
        lam = sf_k / sf_prev if sf_prev > 0.0 else 0.0
        if lam <= 0.0:
            flags.append("lambda_underflow")
            lam = 1e-300
        if lam >= 1.0:
            lam = 1.0 - 1e-16
        # conditional dispersion from pairwise tail ratios
        if d >= 2:
            tails_k = _pair_tails(rhos, t_k, 2.0 * sf_k)
            with np.errstate(invalid="ignore", divide="ignore"):
                ratios = tails_k / tails_prev
            bad = ~np.isfinite(ratios)
            if np.any(bad):
                flags.append("pair_tail_underflow")
                ratios[bad] = lam * lam
            ratios = np.clip(ratios, 0.0, 1.0)
            numer = 2.0 * np.sum(ratios - lam * lam)
            frac = numer / (d * (d - 1) * lam * (1.0 - lam))
        else:
            tails_k = tails_prev
            frac = 0.0
        m_max = cap_prev
        gamma, clamped = match_gamma(lam, frac, max(m_max, 1))
        if clamped:
            flags.append("ebb_gamma_clamped")

        # conditional law: S(t_k) | S(t_{k-1}) = m  ~  EBB(m, lam, gamma);
        # pmf over all (m <= m_max, a <= m) from shared log-factor prefixes,
        # one transition-matrix row per m that carries mass
        pre_a, pre_b, pre_c = _log_factor_prefixes(m_max, lam, gamma)
        ms = np.nonzero(q[: m_max + 1] > 0.0)[0]
        m = ms[:, None]
        a = np.arange(m_max + 1)
        below = a <= m
        ma = np.where(below, m - a, 0)
        logpmf = (log_fact[m] - log_fact[a] - log_fact[ma]
                  + pre_a[a] + pre_b[ma] - pre_c[m])
        q_new = q[ms] @ np.exp(np.where(below, logpmf, -np.inf))
        leak = float(q_new[cap_k + 1:].sum())
        leak_total += leak
        q = np.zeros(d + 1)
        q[: cap_k + 1] = q_new[: cap_k + 1]
        q_rows.append(q_new.copy())
        leaks.append(leak)
        sf_prev = sf_k
        tails_prev = tails_k
        cap_prev = cap_k

    p = float(min(max(leak_total, 0.0), 1.0))
    if return_table:
        return p, CrossingTable(thresholds, caps, tuple(q_rows),
                                np.array(leaks), tuple(flags))
    return p


def invert_bounds(method: str, g: float, d: int,
                  profile: CorrPowerProfile) -> BoundaryVector:
    """Boundary points of a supremum statistic at observed value g.

    For each index j in the maximization range, b_{d-j+1} is the root in t of
    objective(t, j) = g over the indicator region; remaining entries are
    +inf.  MinP binds only |Z|_(d).  A final cumulative-maximum pass repairs
    round-off monotonicity violations.
    """
    if g < 0:
        raise DomainError(f"invert_bounds requires g >= 0, got {g!r}")
    if method == setstats.MINP:
        b = np.full(d, np.inf)
        b[-1] = g
        return BoundaryVector(b=b)
    if method not in setstats.SUPREMUM_METHODS:
        raise DomainError(f"cannot invert method {method!r}")
    if d < 2:
        raise DomainError(f"{method} bounds require d >= 2")
    if method in (setstats.BJ, setstats.HC):
        profile = CorrPowerProfile(rbar=np.zeros(profile.r_max), d=d)

    jmax = setstats.max_index(d)
    js = np.arange(1, jmax + 1)
    t_min = ndtri(1.0 - js / (2.0 * d))        # indicator boundary per index
    flags: list[str] = []

    b = np.full(d, np.inf)
    if g == 0.0:
        roots = t_min.astype(float)
    else:
        def excess(t, j):
            return setstats.objective_values(method, t, j, d, profile)[0] - g

        lo = t_min + 1e-9
        f_lo = excess(lo, js)
        roots = lo.copy()
        open_ = np.nonzero(f_lo < 0.0)[0]         # the rest collapse to lo
        if open_.size:
            # expand the upper brackets of the open indices until they hold g
            hi = np.minimum(t_min + 1.0, setstats.T_MAX)
            f_hi = np.zeros(jmax)
            short = open_
            for _ in range(14):
                f_hi[short] = excess(hi[short], js[short])
                short = short[f_hi[short] < 0.0]
                if short.size == 0:
                    break
                if np.all(hi[short] >= setstats.T_MAX):
                    raise NumericalError(
                        f"{method}: objective never reaches g={g} by t={setstats.T_MAX} "
                        f"at index j={js[short[0]]}")
                hi[short] = np.minimum(t_min[short] + 2.0 * (hi[short] - t_min[short]),
                                       setstats.T_MAX)
            else:
                raise NumericalError(f"{method}: bracket expansion failed at g={g}")
            j_open = js[open_]
            roots[open_] = gauss._bracketed_roots(lambda t, k: excess(t, j_open[k]),
                                                  lo[open_], hi[open_], f_lo[open_], f_hi[open_])
    b[d - js] = roots                           # index d - j + 1, 0-based d - j

    # monotone repair over the finite tail
    fin = np.isfinite(b)
    vals = b[fin]
    repaired = np.maximum.accumulate(vals)
    if np.any(repaired - vals > MONOTONE_REPAIR_FLAG):
        flags.append("monotone_repair")
    b[fin] = repaired
    return BoundaryVector(b=b, diagnostics=tuple(flags))


def pvalue(method: str, Z: setstats.ZVector, Sigma: np.ndarray,
           r_max: int = DEFAULT_R_MAX) -> setstats.TestOutcome:
    """Observed statistic plus its analytic boundary-crossing p-value.

    A statistic of exactly zero (indicator never satisfied) reports p = 1.
    P-values are clamped into [1e-16, 1].
    """
    Sigma = gauss.check_correlation(Sigma)
    outcome = setstats.compute_statistic(method, Z, Sigma, r_max=r_max)
    if outcome.statistic <= 0.0 and method != setstats.MINP:
        outcome.pvalue = 1.0
        return outcome
    if method in (setstats.GBJ, setstats.GHC):
        profile = corr_powers(Sigma, r_max=r_max)
    else:
        profile = CorrPowerProfile(rbar=np.zeros(r_max), d=Z.d)
    bounds = invert_bounds(method, outcome.statistic, Z.d, profile)
    p, table = crossing_pvalue(bounds, Sigma, return_table=True)
    outcome.pvalue = float(min(1.0, max(PVALUE_FLOOR, p)))
    outcome.diagnostics = tuple(sorted(set(outcome.diagnostics)
                                       | set(bounds.diagnostics)
                                       | set(table.diagnostics)))
    return outcome


def rejection_region(method: str, alpha: float, d: int, Sigma: np.ndarray,
                     rel_tol: float = 1e-4, r_max: int = DEFAULT_R_MAX) -> BoundaryVector:
    """Boundary points whose crossing probability equals alpha.

    Root-finds the observed value g at which the analytic p-value hits alpha
    (the p-value decreases monotonically in g), then returns the inverted
    bounds at that g.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha!r}")
    Sigma = gauss.check_correlation(Sigma)
    if Sigma.shape[0] != d:
        raise DomainError(f"d={d} does not match correlation dimension {Sigma.shape[0]}")
    profile = corr_powers(Sigma, r_max=r_max)

    def pv(g: float) -> float:
        return crossing_pvalue(invert_bounds(method, g, d, profile), Sigma)

    if method == setstats.MINP:
        g_lo = 1e-8
    else:
        g_lo = 1e-10
    p_lo = pv(g_lo)
    if p_lo < alpha:
        raise NumericalError(f"{method}: p-value at g~0 is {p_lo:.3g} < alpha={alpha}; "
                             "the rejection region is not reachable")
    g_hi = 1.0 if method != setstats.MINP else 2.0
    p_hi = pv(g_hi)
    for _ in range(60):
        if p_hi < alpha:
            break
        g_hi *= 1.6
        p_hi = pv(g_hi)
    else:
        raise NumericalError(f"{method}: could not bracket alpha={alpha}")

    # log p is close to linear in g; the search stops at a g whose p is
    # within 0.2 rel_tol of alpha
    la = math.log(alpha)

    def log_excess(p: float) -> float:
        return la - math.log(max(p, 1e-300))

    g_star = float(gauss._bracketed_roots(
        lambda g, k: np.array([log_excess(pv(float(g[0])))]),
        np.array([g_lo]), np.array([g_hi]), np.array([log_excess(p_lo)]),
        np.array([log_excess(p_hi)]), ftol=0.2 * rel_tol)[0])
    bounds = invert_bounds(method, g_star, d, profile)
    achieved = crossing_pvalue(bounds, Sigma)
    if abs(achieved - alpha) > rel_tol * alpha:
        raise NumericalError(f"{method}: rejection region missed alpha "
                             f"({achieved:.6g} vs {alpha:.6g})")
    return bounds


def region_to_tsv(bounds: BoundaryVector, method: str, alpha: float) -> str:
    """Serialize a rejection region: index, bound (with 'inf'), method, alpha."""
    lines = ["index\tbound\tmethod\talpha"]
    for i, val in enumerate(bounds.b, start=1):
        text = "inf" if np.isinf(val) else f"{val:.10g}"
        lines.append(f"{i}\t{text}\t{method}\t{alpha:g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exact small-d oracle
# ---------------------------------------------------------------------------

def _admissible(sorted_shells, caps) -> bool:
    # shells are sorted ascending; cap k (1-based) limits #(shell >= k)
    d = len(sorted_shells)
    for k, cap in enumerate(caps, start=1):
        cnt = d - int(np.searchsorted(sorted_shells, k, side="left"))
        if cnt > cap:
            return False
    return True


def exact_small_pvalue(bounds: BoundaryVector, Sigma: np.ndarray,
                       npts: int = 8192, nshift: int = 8) -> float:
    """Exact crossing probability for small sets (d <= 8).

    Partitions space by the shell (between consecutive thresholds) of every
    coordinate magnitude; the non-crossing event is the union of the
    count-admissible cells.  Telescoping the cell sum leaves a short signed
    combination of symmetric-rectangle probabilities Pr(-u <= Z <= u), each
    evaluated by deterministic numerical integration.  At d = 2 this reduces
    to the classical two-term permutation formula.
    """
    Sigma = gauss.check_correlation(Sigma)
    d = Sigma.shape[0]
    if d > 8:
        raise SizeError(f"exact_small_pvalue supports d <= 8, got {d}")
    if bounds.d != d:
        raise DomainError(f"bounds dimension {bounds.d} != correlation dimension {d}")
    thresholds, caps = _stages(bounds)
    K = thresholds.size
    if K == 0:
        return 0.0
    if thresholds[0] <= 0.0 and caps[0] < d:
        return 1.0
    tgrid = np.concatenate(([0.0], np.minimum(thresholds, 38.0), [38.0]))
    caps_list = caps.tolist()

    total = 0.0
    for prof in itertools.combinations_with_replacement(range(1, K + 2), d):
        # necessary condition: even after decrementing every coordinate the
        # cell must be admissible somewhere
        if not _admissible([p - 1 for p in prof], caps_list):
            continue
        weight = 0
        for e in itertools.product((0, 1), repeat=d):
            cell = sorted(prof[i] - e[i] for i in range(d))
            if cell[0] < 0 or cell[-1] > K:
                continue
            if _admissible(cell, caps_list):
                weight += -1 if (d - sum(e)) % 2 else 1
        if weight == 0:
            continue
        for v in set(itertools.permutations(prof)):
            u = tgrid[list(v)]
            p = gauss.mvn_rect(-u, u, Sigma, npts=npts, nshift=nshift)
            total += weight * p
    return float(min(1.0, max(0.0, 1.0 - total)))
