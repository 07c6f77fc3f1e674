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

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, ndtri

from . import ebb, gauss, setstats
from .errors import DomainError, GBJError, NumericalError, SizeError
from .exceedance import CorrelationModel, CorrPowerProfile, correlation_model

PVALUE_FLOOR = 1e-16
MONOTONE_REPAIR_FLAG = 1e-6
# Values per block of stages in the recursion: for the pair tails, atoms
# times stages per call of the series; for the count loop, 3 (d + 1) per
# stage, the EBB log-factor prefixes, and as many again for the
# exponentials of each stage's one tile.  A block or exchangeable design
# takes the pair tails of all its sets' stages in one call, and a d = 500
# set with all-distinct |rho| (124,750 atoms) one stage per call; a d = 500
# set builds the count factors of 43 stages at once (1 MiB), and a d = 2000
# set those of 10.
PAIR_BLOCK_ENTRIES = 1 << 16
# A count-loop tile (``_count_loop``) is one correlation when the maxima of
# its three balanced log factors sum to at most COUNT_TILE_WINDOW, and
# splits otherwise.  Its factors are scaled to at most 1, and q is rescaled
# by a power of two when its largest entry falls below 2^RESCALE_BELOW_LOG2.
# So a product below the smallest normal double keeps an absolute error of
# 2^-1074 (e^-744.4) times e^(window + 11.1) of q's largest entry.  An
# output entry above 1e-200 (e^-460.5) of the largest, which is at least
# q's largest over d + 1, then carries under (d + 1)^2 e^(window - 272.8)
# from such terms: 5e-17 at d = 2000.  A balanced chord leaves about
# m_max / e, so one tile serves m_max up to about 600 (binomial counts);
# every calibrate and scan stage takes one tile.
COUNT_TILE_WINDOW = 220.0
RESCALE_BELOW_LOG2 = -16
REGION_REL_TOL = 1e-4           # a rejection region hits alpha within this share
# The objective equals g at a root only to within its own rounding, which
# came to at most 1.2e-12 (1 + g) over d = 6 to 500, all four methods; an
# inversion stops once its excess is within OBJECTIVE_ROUNDING (1 + g).
OBJECTIVE_ROUNDING = 2e-12
# A root at an inverted g' brackets the root of another g only when
# |g - g'| > WARM_BRACKET_GAP (1 + g), 500 OBJECTIVE_ROUNDING.
WARM_BRACKET_GAP = 1e-9


@dataclass(frozen=True)
class BoundaryVector:
    """Non-decreasing thresholds b_1 .. b_d on |Z|_(1) .. |Z|_(d).

    Entries may be +inf (vacuous constraints); all vacuous entries precede
    the finite ones.  NaN and -inf are rejected.
    """

    b: np.ndarray
    diagnostics: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1 or b.size < 1:
            raise DomainError("BoundaryVector requires a non-empty vector")
        if np.any(np.isnan(b) | (b == -np.inf)):
            raise DomainError("bounds must be numbers or +inf, not NaN or -inf")
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


@dataclass(frozen=True)
class CrossingTable:
    """Where the recursion's p-value came from: ``leaks[k]`` is the mass that
    violated the stage-k constraint, and the p-value is their sum clamped
    into [0, 1]; ``diagnostics`` starts from the bounds' own flags."""

    leaks: np.ndarray
    diagnostics: tuple[str, ...]


def _stages(bounds: BoundaryVector):
    """Distinct finite thresholds with their tightest allowed exceedance
    count.  A bound at (1-based) index i constrains S(b_i) <= d - i; tied
    thresholds keep the smallest cap."""
    d = bounds.d
    thresholds: list[float] = []
    caps: list[int] = []
    fin = np.flatnonzero(np.isfinite(bounds.b))
    for i, t in zip(fin.tolist(), bounds.b[fin].tolist()):
        cap = d - (i + 1)
        if thresholds and t <= thresholds[-1] + 1e-13:
            caps[-1] = min(caps[-1], cap)
        else:
            thresholds.append(t)
            caps.append(cap)
    return np.array(thresholds), np.array(caps, dtype=int)


@dataclass(frozen=True)
class _StagePlan:
    """One set's recursion before its count loop: the distinct finite
    thresholds with their caps (``_stages``) and the flags so far, the
    bounds' own first.  When the first threshold is positive, also each
    stage's lam, the cap m_max of the count entering it and, unless the set
    is in complete dependence, the EBB gamma matched to its pair fraction."""

    thresholds: np.ndarray
    caps: np.ndarray
    flags: tuple[str, ...]
    lam: np.ndarray | None = None
    m_maxes: np.ndarray | None = None
    gamma: np.ndarray | None = None


def _stage_plans(bounds_list: list[BoundaryVector], model: CorrelationModel) -> list[_StagePlan]:
    """The stage plans of one or more sets on one model.  Every stage quantity
    that does not depend on the count law is taken as an array over the
    concatenated stages of all sets, the pair tails by one pass of
    ``_pair_fractions``; a set's first stage starts from t_0 = 0, never from
    the set before it.  Each entry is elementwise, so a set's plan does not
    depend on the list it arrives in."""
    d = model.d
    plans = []
    for bounds in bounds_list:
        if bounds.d != d:
            raise DomainError(f"bounds dimension {bounds.d} != correlation dimension {d}")
        plans.append(_StagePlan(*_stages(bounds), tuple(bounds.diagnostics)))
    # S(0) = d always, so a first threshold at zero settles the p-value
    # without a recursion
    run = [i for i, plan in enumerate(plans)
           if plan.thresholds.size and plan.thresholds[0] > 0.0]
    if not run:
        return plans
    sizes = np.array([plans[i].thresholds.size for i in run])
    starts = np.cumsum(sizes) - sizes
    thresholds = np.concatenate([plans[i].thresholds for i in run])
    caps = np.concatenate([plans[i].caps for i in run])
    first = np.zeros(thresholds.size, dtype=bool)
    first[starts] = True

    sf = gauss.norm_sf(thresholds)
    sf_prev = np.concatenate(([0.5], sf[:-1]))  # sf at t_0 = 0, then t_{k-1}
    sf_prev[first] = 0.5
    lam = np.divide(sf, sf_prev, out=np.zeros_like(sf), where=sf_prev > 0.0)
    lam_under = lam <= 0.0
    lam[lam_under] = 1e-300
    lam[lam >= 1.0] = 1.0 - 1e-16
    m_maxes = np.concatenate(([d], caps[:-1]))  # S(t_{k-1}) is at most cap_{k-1}
    m_maxes[first] = d
    masks = [("lambda_underflow", lam_under)]
    gamma = None
    if model.pair_summary.n_perfect < d * (d - 1) // 2:
        frac, pair_under = _pair_fractions(thresholds, first, sf, sf_prev, lam, model)
        gamma, clamped = ebb.match_gamma(lam, frac, np.maximum(m_maxes, 1))
        masks += [("pair_tail_underflow", pair_under), ("ebb_gamma_clamped", clamped)]

    named = [(name, np.logical_or.reduceat(mask, starts).tolist()) for name, mask in masks]
    for k, (i, lo, n) in enumerate(zip(run, starts.tolist(), sizes.tolist())):
        own = slice(lo, lo + n)
        flags = plans[i].flags + tuple(name for name, raised in named if raised[k])
        plans[i] = _StagePlan(plans[i].thresholds, plans[i].caps, flags, lam[own],
                              m_maxes[own], None if gamma is None else gamma[own])
    return plans


def crossing_pvalue(bounds: BoundaryVector, Sigma: np.ndarray | CorrelationModel,
                    return_table: bool = False, plan: _StagePlan | None = None):
    """Pr(any |Z|_(j) > b_j) for Z ~ MVN(0, Sigma) by the conditional-EBB
    threshold recursion.

    Parameters
    ----------
    bounds : BoundaryVector
        Monotone thresholds; +inf entries are skipped (their constraints are
        vacuous) and the allowed exceedance counts adjust accordingly.
    Sigma : array or CorrelationModel
        Correlation matrix of the marginal statistics.
    return_table : bool
        Also return the CrossingTable: the mass leaked at each stage and the
        diagnostic flags, the bounds' own first.
    plan : _StagePlan, optional
        The stage plan of ``bounds`` on this model, as ``_pvalues`` builds
        it with ``_stage_plans``; built here the same way when not given.
    """
    model = correlation_model(Sigma)
    d = model.d
    if plan is None:
        [plan] = _stage_plans([bounds], model)
    thresholds, caps = plan.thresholds, plan.caps
    if plan.lam is None:
        # S(0) = d always, and every cap is below d: a threshold at zero is
        # crossed surely
        leaks = np.array([1.0] if thresholds.size else [])
        p = float(leaks.sum())
        return (p, CrossingTable(leaks, plan.flags)) if return_table else p

    if plan.gamma is None:
        # complete dependence (every pair perfect, or d = 1): every |Z_i| is
        # one |Z|, so S(t) is 0 or d, and d is above every cap: the first
        # stage leaks 2 sf(t_1), exactly, and no later stage leaks
        leaks = [0.0] * thresholds.size
        leaks[0] = float(2.0 * gauss.norm_sf(thresholds[0]))
    else:
        q = np.zeros(d + 1)
        q[d] = 1.0                              # S(0) = d with certainty
        leaks, _, _ = _count_loop(q, 0, plan.lam, plan.gamma, plan.m_maxes, caps)
    leak_total = 0.0
    for leak in leaks:
        leak_total += leak
    p = float(min(max(leak_total, 0.0), 1.0))
    return (p, CrossingTable(np.array(leaks), plan.flags)) if return_table else p


def _count_loop(q: np.ndarray, k: int, lam: np.ndarray, gamma: np.ndarray,
                m_maxes: np.ndarray, caps: np.ndarray) -> tuple[list[float], np.ndarray, int]:
    """Propagates the count law Pr(S = m) = q[m] 2^-k through the given
    stages; returns the mass each stage leaks past its cap and the law after
    the last stage, as (leaks, q, k).  Stage i takes S(t_i) | S(t_{i-1}) = m
    ~ EBB(m, lam_i, gamma_i) for m up to m_max_i, the cap before it, and
    keeps the counts up to cap_i; q's entries past m_max_i are not read.  k
    moves only when q's largest entry falls below 2^RESCALE_BELOW_LOG2, so
    the scale carries across stages and never rounds.

    With u[a] = pre_a[a] - log a!, w[j] = pre_b[j] - log j! and
    v[m] = log m! - pre_c[m] (``ebb._log_factor_prefixes`` at the stage's
    lam and gamma), the log pmf is u[a] + w[m - a] + v[m], so a stage is a
    correlation: q_new[a] = e^{u[a]} sum over m >= a of (q[m] e^{v[m]})
    e^{w[m - a]}, O(d) exponentials and one ``np.correlate`` per tile
    (``_tile_sum``).  Any beta moves between the factors as U = u + beta a,
    V = v - beta m and Y = w + beta j without changing their sum; beta is
    the chord slope of v over the tile's m, which keeps all three in range.
    beta is a multiple of 2^-20, so beta m is exact, and the factors are
    formed as pre - (log m! - beta m), which rounds at the size of the
    balanced factors rather than of log m!.  Each factor is shifted by the
    ceiling of its maximum, an integer, so the shifts sum exactly.

    The stages run in blocks whose factors are built at once, each stage as
    one tile over a, m = 0 .. m_max; a stage whose balanced maxima sum past
    COUNT_TILE_WINDOW takes ``_tiled_sum`` instead.  Every value of a stage
    is elementwise in its block, so a loop run stage by stage, each call
    taking the law the last one returned, gives the same leaks as one run
    over all the stages.
    """
    n = q.size
    log_fact = gammaln(np.arange(n) + 1.0)     # log m! for m = 0 .. d
    index = np.arange(n, dtype=float)
    leaks: list[float] = []
    rows = max(1, PAIR_BLOCK_ENTRIES // (3 * n))
    for start in range(0, lam.size, rows):
        block = slice(start, start + rows)
        m_block = m_maxes[block]
        factors, one_tile, pre = _stage_factors(lam[block], gamma[block], m_block,
                                                log_fact, index)
        for i, (m_max, cap) in enumerate(zip(m_block.tolist(), caps[block].tolist())):
            n1 = m_max + 1
            qs = q[:n1]
            exponent = math.frexp(np.maximum.reduce(qs))[1]
            if exponent <= RESCALE_BELOW_LOG2:
                # exact: q's largest entry moves back into [1/2, 1)
                qs = np.ldexp(qs, -exponent)
                k -= exponent
            if one_tile[i]:
                eu, ey, ev = factors[:, i, :n1]
                q = _tile_sum(qs, ev, ey, eu, 0)
            else:
                q = _tiled_sum(qs, pre[:, i], log_fact, index)
            leaks.append(math.ldexp(float(np.add.reduce(q[cap + 1:])), -k))
    return leaks, q, k


def _dyadic(x):
    """x rounded to a multiple of 2^-20: its products with counts, and their
    sums with other such values, are exact."""
    return np.ldexp(np.rint(np.ldexp(x, 20)), -20)


def _stage_factors(lam, gamma, m_maxes, log_fact, index):
    """For a block of stages at size d: each stage's one tile over a, m =
    0 .. m_max, as the exponentials e^{U + max V + max Y}, e^{Y - max Y}
    and e^{V - max V} of its balanced factors (see ``_count_loop``) in one
    (3, stages, d + 1) array; whether the maxima of U, V and Y sum to at
    most COUNT_TILE_WINDOW; and the prefixes pre_a, pre_b and pre_c for
    ``_tiled_sum``.  Entries past a stage's own m_max are never read; they
    may be NaN where its gamma is infeasible at that size."""
    d = log_fact.size - 1
    rows = np.arange(m_maxes.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pre = ebb._log_factor_prefixes(d, lam, gamma)
        # v[0] = 0, so the chord over 0 .. m_max is v[m_max] / m_max
        beta = _dyadic((log_fact[m_maxes] - pre[2, rows, m_maxes]) / np.maximum(m_maxes, 1))
        factors = pre - (log_fact - beta[:, None] * index)   # U, Y and -V
        np.negative(factors[2], out=factors[2])
        np.copyto(factors, -np.inf, where=index > m_maxes[:, None])
        top = np.ceil(np.maximum.reduce(factors, axis=2))
        shift = top.copy()
        shift[0] = -(top[1] + top[2])
        factors -= shift[:, :, None]
        np.exp(factors, out=factors)
    return factors, top.sum(axis=0) <= COUNT_TILE_WINDOW, pre


def _tiled_sum(qs, pre, log_fact, index) -> np.ndarray:
    """q_new of a stage, in the scale of qs, from tiles over (a, m): the
    square a, m = 0 .. m_max is halved along its longer side until the
    balanced maxima of each tile sum to at most COUNT_TILE_WINDOW.  A tile
    keeps only its pairs with m >= a, and its beta is the chord slope of v
    over its own m; a single pair is its own log pmf, at most 0, so the
    halving ends.  ``pre`` holds the stage's pre_a, pre_b and pre_c."""
    pre_a, pre_b, pre_c = pre
    m_max = qs.size - 1
    q_new = np.zeros(m_max + 1)
    tiles = [(0, m_max, 0, m_max)]
    while tiles:
        a0, a1, m0, m1 = tiles.pop()
        if a0 > m1:
            continue                            # no pair with m >= a
        a1, m0 = min(a1, m1), max(m0, a0)
        j0, j1 = max(m0 - a1, 0), m1 - a0
        rise = (log_fact[m1] - pre_c[m1]) - (log_fact[m0] - pre_c[m0])
        beta = _dyadic(rise / (m1 - m0)) if m1 > m0 else 0.0
        g_a, c_a = _off_line(log_fact, index, beta, a0, a1)
        g_m, c_m = _off_line(log_fact, index, beta, m0, m1)
        g_j, c_j = _off_line(log_fact, index, beta, j0, j1)
        U = pre_a[a0:a1 + 1] - g_a
        V = g_m - pre_c[m0:m1 + 1]
        Y = pre_b[j0:j1 + 1] - g_j
        excess = c_a + c_j - c_m                # U + V + Y - excess is the log pmf
        u_top, v_top, y_top = np.ceil(U.max()) - excess, np.ceil(V.max()), np.ceil(Y.max())
        if u_top + v_top + y_top > COUNT_TILE_WINDOW and (a1 > a0 or m1 > m0):
            if a1 - a0 > m1 - m0:
                mid = (a0 + a1) // 2
                tiles += [(a0, mid, m0, m1), (mid + 1, a1, m0, m1)]
            else:
                mid = (m0 + m1) // 2
                tiles += [(a0, a1, m0, mid), (a0, a1, mid + 1, m1)]
            continue
        q_new[a0:a1 + 1] += _tile_sum(qs[m0:m1 + 1], np.exp(V - v_top), np.exp(Y - y_top),
                                      np.exp(U + (v_top + y_top - excess)), m0 - j0 - a0)
    return q_new


def _off_line(log_fact, index, beta, lo: int, hi: int):
    """log m! less the line of slope beta through its value at the middle
    of lo .. hi, over lo .. hi, with the line's offset c.  beta and c are
    multiples of 2^-20, so the line is exact and the difference rounds only
    at its own size, not at the size of log m!."""
    mid = (lo + hi) // 2
    c = _dyadic(log_fact[mid] - beta * mid)
    return log_fact[lo:hi + 1] - (beta * index[lo:hi + 1] + c), c


def _tile_sum(qs, ev, ey, eu, offset: int) -> np.ndarray:
    """One tile's share of q_new[a] over its a0 .. a1: eu[a] times the sum
    over its m of qs[m] ev[m] ey[m - a], with qs and ev over the tile's m
    from m0, ey over j = m - a from j0 and eu over a from a0, and offset
    m0 - j0 - a0.  One ``np.correlate`` of ey against the products laid out
    along a + j, zero outside the tile's m."""
    x = np.zeros(ey.size + eu.size - 1)
    np.multiply(qs, ev, out=x[offset:offset + qs.size])
    s = np.correlate(x, ey, "valid")
    s *= eu
    return s


def _pair_fractions(thresholds: np.ndarray, first: np.ndarray, sf: np.ndarray,
                    sf_prev: np.ndarray, lam: np.ndarray,
                    model: CorrelationModel) -> tuple[np.ndarray, np.ndarray]:
    """Per stage, the pairwise indicator correlation the EBB dispersion
    matches: sum over pairs of (R_k - lam_k^2) over d(d-1)/2 lam_k (1 - lam_k),
    where R_k is a pair's joint tail at t_k over its joint tail at t_{k-1},
    clipped into [0, 1].  The stages are those of one or more sets one after
    another, ``first`` marking where each set starts; a set's first stage
    divides by the tails at t_0 = 0, which are 1.

    The pair tails come from ``gauss.bivar_abs_tail_many``, one value per
    distinct |rho| and stage, in blocks of stages with about
    PAIR_BLOCK_ENTRIES values each: block and exchangeable designs need one
    call for all the sets, and a large set with all-distinct |rho| one stage
    per call.  A pair whose tail at t_{k-1} is below the smallest normal
    double has no usable ratio: it takes lam_k^2, and the stage is marked in
    the returned mask of pair-tail underflows.

    A perfectly (anti)correlated pair shares one |Z|, so its tails are
    2 sf(t) and its ratio is sf(t_k) / sf(t_{k-1}), the stage's lam before
    clipping; it takes no series call.
    """
    d = model.d
    pairs = model.pair_summary
    n = pairs.rhos.size
    total = np.zeros(thresholds.size)
    underflow = np.zeros(thresholds.size, dtype=bool)
    tiny = np.finfo(float).tiny
    lam2 = lam * lam
    with np.errstate(invalid="ignore", divide="ignore"):
        if n:
            rows = max(1, PAIR_BLOCK_ENTRIES // n)
            tails_prev = np.ones(n)
            for start in range(0, thresholds.size, rows):
                block = slice(start, min(start + rows, thresholds.size))
                tails = gauss.bivar_abs_tail_many(thresholds[block], pairs.rhos)
                np.clip(tails, 0.0, 1.0, out=tails)
                out = np.concatenate((tails_prev[None], tails[:-1]))
                out[first[block]] = 1.0         # the tails at t_0
                tails_prev = tails[-1]
                bad = out < tiny                # denominators below tiny
                np.divide(tails, out, out=out)
                sq = lam2[block, None]
                if bad.any():
                    underflow[block] = bad.any(axis=1)
                    out[bad] = np.broadcast_to(sq, out.shape)[bad]
                np.clip(out, 0.0, 1.0, out=out)
                out -= sq
                # the sum over pairs; vecdot takes one BLAS dot per stage, so
                # a stage's sum does not depend on the block it arrives in
                total[block] = np.vecdot(out, pairs.counts)
        if pairs.n_perfect:
            under = 2.0 * sf_prev < tiny
            underflow |= under
            ratio = np.clip(sf / sf_prev, 0.0, 1.0) - lam2
            total += pairs.n_perfect * np.where(under, 0.0, ratio)
    return 2.0 * total / (d * (d - 1) * lam * (1.0 - lam)), underflow


def invert_bounds(method: str, g, d: int, profile: CorrPowerProfile | None):
    """Boundary points of a supremum statistic at observed value g.

    For each index j in the maximization range, b_{d-j+1} is the root in t of
    objective(t, j) = g over the indicator region; remaining entries are
    +inf.  MinP binds only |Z|_(d), at g itself.  A final cumulative-maximum
    pass repairs round-off monotonicity violations.  Only GBJ and GHC read
    ``profile``.

    A scalar g gives one BoundaryVector.  A 1-D array of g gives a list with
    one entry per g: its BoundaryVector, or the NumericalError that a scalar
    call at that g raises.  The roots of all g are found by one search of a
    fresh ``_BoundSearch``; one g gives the bounds of its scalar call bit for
    bit.
    """
    gs = np.asarray(g, dtype=float)
    if gs.ndim > 1:
        raise DomainError(f"invert_bounds takes a scalar or 1-D g, got shape {gs.shape}")
    if not np.all(gs >= 0):
        raise DomainError(f"invert_bounds requires g >= 0, got {g!r}")
    return _one_or_list(_BoundSearch(method, d, profile).invert(gs.reshape(-1)), gs.ndim == 0)


def _one_or_list(out: list, single: bool):
    """A list call's entries, or a scalar call's one entry, raised when it is
    an error."""
    if single and isinstance(out[0], GBJError):
        raise out[0]
    return out[0] if single else out


class _BoundSearch:
    """Boundary inversion of one supremum method at one d and power profile.

    HC's and BJ's objectives read t only through lam = 2 sf(t), so their
    roots are taken without a search (``setstats._binomial_roots``): HC's in
    closed form, BJ's by Newton from HC's.  MinP's one objective, at j = 1,
    is t itself, so its root is g.  GBJ and GHC search, each from the root
    of its seed method, BJ for GBJ and HC for GHC.

    The objective rises in t, so each index's root rises with g.  Every g a
    search inverts joins a table of its raw roots (before the monotone
    repair), and a later g brackets each root between the raw roots at its
    nearest inverted neighbours g' < g < g'', taking g' - g and g'' - g as
    the excess there without evaluating it.  A neighbour within
    WARM_BRACKET_GAP (1 + g) of g is passed over, since the objective at its
    roots equals g' only to within rounding.  An entry without a g'' takes
    the seed root as its upper end where that lies above its lower end, and
    expands the upper end until it is no longer short (``_expand``); a short
    upper end becomes the lower end, and an upper end whose excess is within
    the search's tolerance is the root.  A cold lower end is the indicator
    boundary t_min + 1e-9, where lambda0 = j/d and every objective is zero
    to within 1e-8, so its excess is taken as -g without a call.
    """

    def __init__(self, method: str, d: int, profile: CorrPowerProfile | None):
        if method not in setstats.ALL_METHODS:
            raise DomainError(f"cannot invert method {method!r}")
        self.method, self.d, self.profile = method, d, profile
        self.seed_method = setstats.BJ if method in (setstats.BJ, setstats.GBJ) else setstats.HC
        if method == setstats.MINP:
            self.js, self.t_min = np.array([1]), np.zeros(1)
        elif d < 2:
            raise DomainError(f"{method} bounds require d >= 2")
        else:
            self.js = np.arange(1, setstats.max_index(d) + 1)
            self.t_min = ndtri(1.0 - self.js / (2.0 * d))   # indicator boundary per index
        self.t_lo = self.t_min + 1e-9
        self.gs: list[float] = []                       # searched g > 0, ascending
        self.roots: list[np.ndarray] = []               # their raw roots

    def invert(self, gs: np.ndarray) -> list:
        """``invert_bounds`` over a 1-D array of g with one root search.  The
        search runs over (g, index) entries, which it treats independently; a
        g with an entry whose objective stays below g up to T_MAX gets the
        error naming the first such index."""
        method, js, t_min = self.method, self.js, self.t_min
        searched = method in setstats.PROFILE_METHODS
        roots = np.tile(t_min, (gs.size, 1))    # a g of zero keeps these
        errors: dict[int, NumericalError] = {}

        pos = np.nonzero(gs > 0.0)[0]
        if method == setstats.MINP:
            roots[pos, 0] = gs[pos]
        elif pos.size:
            # entry e is index js[col[e]] of g row[e]
            row = np.repeat(pos, js.size)
            col = np.tile(np.arange(js.size), pos.size)
            g_e = gs[row]
            seed = np.maximum(setstats._binomial_roots(self.seed_method, g_e, js[col], self.d),
                              self.t_lo[col])
            if searched:
                failed = self._search(row, col, g_e, seed, roots)
            else:
                roots[row, col] = seed
                failed = seed > setstats.T_MAX
            for e in np.flatnonzero(failed):
                if row[e] not in errors:
                    errors[row[e]] = NumericalError(
                        f"{method}: objective never reaches g={gs[row[e]]} by "
                        f"t={setstats.T_MAX} at index j={js[col[e]]}")

        out: list = []
        for r in range(gs.size):
            if r in errors:
                out.append(errors[r])
                continue
            if searched and gs[r] > 0.0:
                self._record(float(gs[r]), roots[r])
            b = np.full(self.d, np.inf)
            b[self.d - js] = roots[r]           # index d - j + 1, 0-based d - j
            # monotone repair over the finite tail
            fin = np.isfinite(b)
            vals = b[fin]
            repaired = np.maximum.accumulate(vals)
            flags = ("monotone_repair",) if np.any(repaired - vals > MONOTONE_REPAIR_FLAG) else ()
            b[fin] = repaired
            out.append(BoundaryVector(b=b, diagnostics=flags))
        return out

    def _search(self, row, col, g_e, seed, roots) -> np.ndarray:
        """GBJ's or GHC's roots of entries (row, col) at g_e into ``roots``,
        searched from the seed roots; returns the mask of entries whose
        objective stays below g up to T_MAX."""
        jmax = self.js.size

        def excess(t, e):
            return setstats.objective_values(self.method, t, self.js[col[e]], self.d,
                                             self.profile)[0] - g_e[e]

        lo = self.t_lo[col]
        f_lo = -g_e                         # the objectives vanish at t_lo
        hi = np.full(row.size, np.nan)      # nan until bracketed
        f_hi = np.zeros(row.size)
        if self.gs:
            for k, g in enumerate(g_e[::jmax].tolist()):
                self._warm(g, slice(k * jmax, (k + 1) * jmax), lo, f_lo, hi, f_hi)
        cold = np.flatnonzero(np.isnan(hi))
        hi[cold] = np.minimum(seed[cold], setstats.T_MAX)
        behind = cold[seed[cold] <= lo[cold]]   # below a g' root, or at t_lo
        hi[behind] = self._expand(lo[behind], f_lo[behind] + g_e[behind], g_e[behind],
                                  col[behind])
        ftol = OBJECTIVE_ROUNDING * (1.0 + g_e)
        failed = np.zeros(row.size, dtype=bool)
        # an upper end within ftol of g is the root; with one evaluated
        # point it takes no secant polish
        done = np.zeros(row.size, dtype=bool)
        short = cold
        while short.size:
            f_hi[short] = excess(hi[short], short)
            done[short] = np.abs(f_hi[short]) <= ftol[short]
            short = short[(f_hi[short] < 0.0) & ~done[short]]
            lo[short], f_lo[short] = hi[short], f_hi[short]
            at_max = hi[short] >= setstats.T_MAX
            failed[short[at_max]] = True
            short = short[~at_max]
            hi[short] = self._expand(hi[short], f_hi[short] + g_e[short], g_e[short], col[short])
        roots[row[done], col[done]] = hi[done]
        open_ = np.flatnonzero(~(done | np.isin(row, row[failed])))
        if not open_.size:
            return failed
        # (t, excess) of each entry's last two evaluations
        last, prev = np.full((2, open_.size), np.nan), np.full((2, open_.size), np.nan)

        def recorded(t, k):
            f = excess(t, open_[k])
            prev[:, k] = last[:, k]
            last[:, k] = t, f
            return f

        root = gauss._bracketed_roots(recorded, lo[open_], hi[open_], f_lo[open_],
                                      f_hi[open_], ftol=ftol[open_])
        # a root the search stopped at within ftol takes one more secant
        # step through its last two points, free of a call, which brings it
        # to the objective's rounding: a warm and a cold bracket reach the
        # same root, not two points up to ftol apart
        with np.errstate(divide="ignore", invalid="ignore"):
            step = last[1] * (last[0] - prev[0]) / (last[1] - prev[1])
        polish = (root == last[0]) & (np.abs(step) < np.abs(last[0] - prev[0]))
        roots[row[open_], col[open_]] = np.where(polish, root - step, root)
        return failed

    def _expand(self, t, obj, g, cols) -> np.ndarray:
        """Next upper ends past points t whose objective ``obj`` falls short
        of g, at indices js[cols].  GBJ's and GHC's objectives are BJ's and
        HC's times a factor that varies slowly in t, GHC's most, so the next
        end is the seed method's root at G (g / obj)^2, G its objective at
        t: twice the shortfall in log, past the root where the factor is
        constant.  It goes no further than twice t's distance from t_min,
        the step taken where obj is not positive, nor past T_MAX."""
        js, t_min = self.js[cols], self.t_min[cols]
        lam = np.maximum(2.0 * gauss.norm_sf(t), setstats._LAM_FLOOR)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            target = setstats._binomial_objective(self.seed_method, np.log(lam), js,
                                                  self.d) * (g / obj) ** 2
            ratio = setstats._binomial_roots(self.seed_method,
                                             np.where(obj > 0.0, target, np.nan), js, self.d)
        double = t_min + 2.0 * (t - t_min)
        return np.minimum(np.where(ratio > t, np.minimum(ratio, double), double), setstats.T_MAX)

    def _warm(self, g: float, e: slice, lo, f_lo, hi, f_hi) -> None:
        """Brackets entries ``e`` of g between the raw roots of its nearest
        inverted neighbours, in place."""
        i = bisect.bisect_left(self.gs, g)
        gap = WARM_BRACKET_GAP * (1.0 + g)
        if i > 0 and g - self.gs[i - 1] > gap:
            below = self.roots[i - 1]
            # an entry that collapsed to lo there keeps lo and its exact excess
            warm = below > lo[e]
            lo[e][warm] = below[warm]
            f_lo[e][warm] = self.gs[i - 1] - g
        if i < len(self.gs) and self.gs[i] - g > gap:
            hi[e] = self.roots[i]
            f_hi[e] = self.gs[i] - g

    def _record(self, g: float, roots: np.ndarray) -> None:
        i = bisect.bisect_left(self.gs, g)
        if i == len(self.gs) or self.gs[i] != g:
            self.gs.insert(i, g)
            self.roots.insert(i, roots.copy())


def pvalue(method: str, Z: setstats.ZVector | list[setstats.ZVector],
           Sigma: np.ndarray | CorrelationModel):
    """Observed statistic plus its analytic boundary-crossing p-value.

    A statistic of exactly zero (indicator never satisfied) reports p = 1.
    P-values are clamped into [1e-16, 1].

    A list of ZVectors on the one ``Sigma`` gives a list with one entry per
    set: its TestOutcome, or the GBJError that a call with that set alone
    raises.  The sets go through ``_pvalues`` together.  One set gives its
    scalar call's outcome bit for bit.
    """
    single = isinstance(Z, setstats.ZVector)
    out = _pvalues((method,), [Z] if single else Z, correlation_model(Sigma))[method]
    return _one_or_list(out, single)


def _pvalues(methods, Zs: list[setstats.ZVector], model: CorrelationModel) -> dict[str, list]:
    """Each method's outcome on each set of one model: {method: one entry per
    set}, its TestOutcome or GBJError.  A set whose method fails takes that
    error as its entry in every later method too.  Per method in order, the
    live sets take their statistics, and the positive ones are inverted in
    one ``invert_bounds`` call.  Then one ``_stage_plans`` call builds the
    plans of every inverted (method, set), which so share their calls of the
    pair series, and each runs its own count loop (``crossing_pvalue``,
    which raises nothing once it has a plan).  Plans are elementwise, so an
    outcome does not depend on the methods or sets beside it."""
    failed: dict[int, GBJError] = {}
    out: dict[str, list] = {}
    inverted: list = []                         # (outcome, bounds)
    for method in methods:
        entries = out[method] = []
        for k, z in enumerate(Zs):
            if k not in failed:
                try:
                    entries.append(setstats.compute_statistic(method, z, model))
                    entries[-1].pvalue = 1.0    # a positive statistic's is set below
                    continue
                except GBJError as err:
                    failed[k] = err
            entries.append(failed[k])
        pending = [k for k, o in enumerate(entries) if k not in failed and o.statistic > 0.0]
        if pending:
            profile = model.profile if method in setstats.PROFILE_METHODS else None
            stats = np.array([entries[k].statistic for k in pending])
            for k, bounds in zip(pending, invert_bounds(method, stats, model.d, profile)):
                if isinstance(bounds, GBJError):
                    entries[k] = failed[k] = bounds
                else:
                    inverted.append((entries[k], bounds))
    plans = _stage_plans([bounds for _, bounds in inverted], model)
    for (outcome, bounds), plan in zip(inverted, plans):
        p, table = crossing_pvalue(bounds, model, return_table=True, plan=plan)
        outcome.pvalue = float(min(1.0, max(PVALUE_FLOOR, p)))
        outcome.diagnostics = tuple(sorted(set(outcome.diagnostics) | set(table.diagnostics)))
    return out


def rejection_region(method: str, alpha: float | np.ndarray, d: int,
                     Sigma: np.ndarray | CorrelationModel
                     ) -> BoundaryVector | list[BoundaryVector]:
    """Boundary points whose crossing probability equals alpha.

    Root-finds the observed value g at which the analytic p-value hits alpha
    (the p-value decreases monotonically in g), then returns the inverted
    bounds at that g.  A 1-D array of alpha gives a list with one region per
    alpha, or raises the error of the first alpha that fails.

    The searches of all alphas share one table of evaluated g (bounds and
    p-value) and one ``_BoundSearch``, so each inversion is bracketed by the
    roots of its evaluated neighbours.  A root search returns a point it has
    evaluated, so its bounds and p-value are reused, not recomputed.
    """
    alphas = np.asarray(alpha, dtype=float)
    if alphas.ndim > 1 or not np.all((alphas > 0.0) & (alphas < 1.0)):
        raise DomainError(f"alpha must be in (0, 1), got {alpha!r}")
    model = correlation_model(Sigma)
    if model.d != d:
        raise DomainError(f"d={d} does not match correlation dimension {model.d}")
    profile = model.profile if method in setstats.PROFILE_METHODS else None
    search = _BoundSearch(method, d, profile)
    evaluated: dict[float, tuple[BoundaryVector, float]] = {}

    def evaluate(g: float) -> tuple[BoundaryVector, float]:
        if g not in evaluated:
            [bounds] = search.invert(np.array([g]))
            if isinstance(bounds, NumericalError):
                raise bounds
            evaluated[g] = bounds, crossing_pvalue(bounds, model)
        return evaluated[g]

    # MinP's g is a threshold on |Z|, not an objective value
    g_lo, g_hi = (1e-8, 2.0) if method == setstats.MINP else (1e-10, 1.0)
    regions = [_region(method, float(a), g_lo, g_hi, evaluate) for a in alphas.reshape(-1)]
    return regions if alphas.ndim == 1 else regions[0]


def _region(method: str, alpha: float, g_lo: float, g_hi: float, evaluate) -> BoundaryVector:
    """``rejection_region`` at one alpha, with ``evaluate(g)`` giving the
    bounds and p-value at g: climbs a ladder from g_hi until p falls below
    alpha, then root-finds log p in g from the last rung with p >= alpha.
    The first step is x1.6.  Each later one is twice the step at which log p,
    extrapolated linearly in g through the last two rungs, reaches log
    alpha, clamped to x1.6 to x16: log p flattens in g for HC and GHC, so
    the line alone falls short, and where log p is straight the overshoot
    costs the root search about one step.  p falls as g rises, so g_lo is
    evaluated only when p at g_hi is already below alpha."""
    def pv(g: float) -> float:
        return evaluate(g)[1]

    la = math.log(alpha)
    p_hi = pv(g_hi)
    if p_hi < alpha:
        g_prev, p_prev = g_lo, pv(g_lo)
        if p_prev < alpha:
            raise NumericalError(f"{method}: p-value at g~0 is {p_prev:.3g} < alpha={alpha}; "
                                 "the rejection region is not reachable")
    else:
        factor = 1.6
        for _ in range(60):
            g_prev, p_prev = g_hi, p_hi
            g_hi *= factor
            p_hi = pv(g_hi)
            if p_hi < alpha:
                break
            slope = (math.log(p_hi) - math.log(p_prev)) / (g_hi - g_prev)
            reach = (la - math.log(p_hi)) / (slope * g_hi) if slope < 0.0 else math.inf
            factor = min(max(1.0 + 2.0 * reach, 1.6), 16.0)
        else:
            raise NumericalError(f"{method}: could not bracket alpha={alpha}")

    # the search in log p stops at a g whose p is within 0.2 REGION_REL_TOL
    # of alpha; both rungs are evaluated already
    g_star = gauss.find_root(lambda g: la - math.log(max(pv(g), 1e-300)), g_prev, g_hi,
                             tol=0.0, ftol=0.2 * REGION_REL_TOL)
    bounds, achieved = evaluate(g_star)
    if abs(achieved - alpha) > REGION_REL_TOL * alpha:
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


def exact_small_pvalue(bounds: BoundaryVector, Sigma: np.ndarray | CorrelationModel,
                       npts: int = 8192, nshift: int = 8) -> float:
    """Crossing probability for small sets (d <= 8), exact but for the
    lattice error of its rectangles.

    Partitions space by the shell (between consecutive thresholds) of every
    coordinate magnitude; the non-crossing event is the union of the
    count-admissible cells.  Telescoping the cell sum leaves a short signed
    combination of symmetric-rectangle probabilities Pr(-u <= Z <= u), each
    evaluated by deterministic numerical integration (``npts`` points times
    ``nshift`` shifts from d = 3).  At d = 2 this reduces to the classical
    two-term permutation formula.

    Each rectangle keeps the lattice's absolute error while the signed sum
    cancels down to p, so the relative error grows as p falls.  Against a
    131,072-point, 12-shift lattice, the default reads GBJ's rejection
    region on exchangeable 0.5, d = 6, 0.07% low at alpha = 0.01 and 9.0%
    low at 1e-4, and MinP's 1.4% low at 1e-4; GBJ at 1e-4 was off by 15% on
    a random one-factor Sigma at d = 6 and by 58% on exchangeable 0.3 at
    d = 8.
    """
    Sigma = correlation_model(Sigma).matrix
    d = Sigma.shape[0]
    if d > 8:
        raise SizeError(f"exact_small_pvalue supports d <= 8, got {d}")
    if bounds.d != d:
        raise DomainError(f"bounds dimension {bounds.d} != correlation dimension {d}")
    thresholds, caps = _stages(bounds)
    K = thresholds.size
    if K == 0:
        return 0.0
    if thresholds[0] <= 0.0:
        return 1.0
    tgrid = np.concatenate(([0.0], np.minimum(thresholds, 38.0), [38.0]))
    caps_list = caps.tolist()

    # permutations of a profile often reorder to the same integral (all of
    # them for an exchangeable Sigma); each distinct one is integrated once
    integrals: dict[bytes, float] = {}

    def rect(u: np.ndarray) -> float:
        if d <= 2:
            return gauss.mvn_rect(-u, u, Sigma)
        L, a, b = gauss._cholesky_reordered(-u, u, Sigma)
        key = L.tobytes() + a.tobytes() + b.tobytes()
        if key not in integrals:
            integrals[key] = gauss._lattice_integral(L, a, b, npts, nshift)[0]
        return integrals[key]

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
            total += weight * rect(tgrid[list(v)])
    return float(min(1.0, max(0.0, 1.0 - total)))
