import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import binom

from gbjtest import exceedance, gauss, setstats
from gbjtest.errors import DegenerateInputError, DomainError
from tests.conftest import exchangeable, hermite, rand_corr


class TestSolveMu:
    """``_solve_mu_vec``, the mean shift of the GBJ alternative."""

    def test_reproduces_target_fraction(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 80))
            j = int(rng.integers(1, d // 2 + 1))
            t_min = ndtri(1.0 - j / (2.0 * d))
            t = t_min + rng.uniform(0.01, 3.0)
            mu = setstats._solve_mu_vec(np.array([t]), np.array([j]), d)[0]
            lam = gauss.norm_sf(t - mu) + gauss.norm_sf(t + mu)
            assert abs(lam - j / d) < 1e-10
            assert mu > 0

    @pytest.mark.parametrize("d", [2, 50, 500])
    def test_newton_edges_reproduce_target_fraction(self, d):
        # at the indicator boundary mu -> 0 and the derivative vanishes; at
        # T_MAX the null tail is subnormal
        j = np.arange(1, d // 2 + 1)
        t_min = ndtri(1.0 - j / (2.0 * d))
        for t in (t_min + 1e-9, np.full(j.size, setstats.T_MAX)):
            mu = setstats._solve_mu_vec(t, j, d)
            lam = gauss.norm_sf(t - mu) + gauss.norm_sf(t + mu)
            assert np.all(np.abs(lam - j / d) < 1e-10)
            assert np.all(mu > 0)

    def test_known_values(self):
        mu = setstats._solve_mu_vec(np.array([2.0, 1.0]), np.array([5, 9]), 10)
        assert mu[0] == pytest.approx(2.0, abs=1e-3)
        assert mu[1] == pytest.approx(2.28, abs=0.01)


def straight_line_gbj_objective(t, j, d, Sigma):
    """Independent re-implementation of the per-index EBB likelihood ratio,
    written linearly with no shared code paths."""
    sf = gauss.norm_sf(t)
    lam0 = 2 * sf
    iu = np.triu_indices(d, k=1)
    rbar = np.array([np.mean(Sigma[iu] ** r) for r in range(1, 11)])

    def hermite_series_variance(mu):
        lam = 1 - (ndtr(t - mu) - ndtr(-t - mu))
        acc = d * lam * (1 - lam)
        pa = math.exp(-0.5 * (t - mu) ** 2) / math.sqrt(2 * math.pi)
        pb = math.exp(-0.5 * (-t - mu) ** 2) / math.sqrt(2 * math.pi)
        sA = sB = sC = 0.0
        for r in range(1, 11):
            ha = hermite(r - 1, t - mu)
            hb = hermite(r - 1, -t - mu)
            sA += rbar[r - 1] / math.factorial(r) * ha * ha
            sB += rbar[r - 1] / math.factorial(r) * hb * hb
            sC += rbar[r - 1] / math.factorial(r) * ha * hb
        return acc + d * (d - 1) * (pa * pa * sA + pb * pb * sB - 2 * pa * pb * sC)

    def match_gamma(lam, var):
        frac = (var - d * lam * (1 - lam)) / (d * (d - 1) * lam * (1 - lam))
        return frac / (1 - frac)

    def ebb_pmf(v, lam, gam):
        out = math.comb(d, v)
        for k in range(v):
            out *= lam + gam * k
        for k in range(d - v):
            out *= 1 - lam + gam * k
        for k in range(d):
            out /= 1 + gam * k
        return out

    g0 = match_gamma(lam0, hermite_series_variance(0.0))
    mu_hat = setstats._solve_mu_vec(np.array([t]), np.array([j]), d)[0]
    lam_a = j / d
    ga = match_gamma(lam_a, hermite_series_variance(mu_hat))
    return math.log(ebb_pmf(j, lam_a, ga) / ebb_pmf(j, lam0, g0))


class TestGbjObjective:
    """The GBJ per-index objective, ``objective_values("GBJ", ...)``."""

    def test_identity_reduces_to_binomial_ratio(self, rng):
        d = 12
        prof = exceedance.zero_profile(d)
        for _ in range(20):
            j = int(rng.integers(1, d // 2 + 1))
            t_min = ndtri(1.0 - j / (2.0 * d))
            t = t_min + rng.uniform(0.05, 2.5)
            got = setstats.objective_values("GBJ", np.array([t]), np.array([j]), d, prof)[0][0]
            lam0 = 2 * gauss.norm_sf(t)
            want = math.log(binom.pmf(j, d, j / d) / binom.pmf(j, d, lam0))
            assert got == pytest.approx(want, abs=1e-10)

    def test_two_of_two_case(self):
        # d=2, observed (3, 0): only j=1 qualifies at t=3
        prof = exceedance.zero_profile(2)
        lam0 = 2 * gauss.norm_sf(3.0)
        want = math.log(binom.pmf(1, 2, 0.5) / binom.pmf(1, 2, lam0))
        got = setstats.objective_values("GBJ", np.array([3.0]), np.array([1]), 2, prof)[0][0]
        assert got == pytest.approx(want, abs=1e-10)
        assert got == pytest.approx(4.53, abs=0.01)

    def test_matches_straight_line_reimplementation(self):
        d = 10
        Sigma = exchangeable(d, 0.3)
        prof = exceedance.corr_powers(Sigma)
        got = setstats.objective_values("GBJ", np.array([2.5]), np.array([2]), d, prof)[0][0]
        want = straight_line_gbj_objective(2.5, 2, d, Sigma)
        assert got == pytest.approx(want, abs=1e-10)

    def test_increasing_in_threshold(self, rng):
        d = 16
        prof = exceedance.corr_powers(rand_corr(d, rng))
        for j in (1, 3, 8):
            t_min = ndtri(1.0 - j / (2.0 * d))
            ts = np.linspace(t_min + 1e-3, t_min + 5.0, 60)
            vals, _ = setstats.objective_values("GBJ", ts, np.full(ts.size, j), d, prof)
            assert np.all(np.diff(vals) > 0)

    def test_smooth_on_a_deep_tail_grid(self):
        # at t = 7.1144 the null lambda is 1.1e-12; recovering the null
        # dispersion from Var S minus its binomial part cancelled there and
        # made the objective step by 4e-10 and fall back
        d = 5
        prof = exceedance.corr_powers(exchangeable(d, 0.3))
        ts = np.linspace(7.1144, 7.1144 + 1e-9, 2001)
        vals, _ = setstats.objective_values("GBJ", ts, np.full(ts.size, 2), d, prof)
        steps = np.diff(vals)
        assert np.all(steps >= 0.0)
        assert np.max(steps) <= 1e-10


class TestComputeStatistic:
    def test_all_indicators_fail_gives_zero(self):
        Z = setstats.ZVector(np.array([0.1, 0.2, 0.3, 0.4]))
        for method in ("GBJ", "BJ", "HC", "GHC"):
            out = setstats.compute_statistic(method, Z, np.eye(4))
            assert out.statistic == 0.0
            assert not out.indicator_ever_true
            assert out.achieving_index is None

    def test_gbj_equals_bj_under_independence(self, rng):
        for d in (5, 20, 50):
            for _ in range(40):
                Z = setstats.ZVector(rng.standard_normal(d) * rng.uniform(1.0, 2.0))
                a = setstats.compute_statistic("GBJ", Z, np.eye(d))
                b = setstats.compute_statistic("BJ", Z, np.eye(d))
                assert abs(a.statistic - b.statistic) <= 1e-8

    def test_ghc_equals_hc_under_independence(self, rng):
        d = 15
        for _ in range(20):
            Z = setstats.ZVector(rng.standard_normal(d) * 1.5)
            a = setstats.compute_statistic("GHC", Z, np.eye(d))
            b = setstats.compute_statistic("HC", Z, np.eye(d))
            assert abs(a.statistic - b.statistic) <= 1e-8

    def test_minp_is_largest_magnitude(self):
        Z = setstats.ZVector(np.array([-3.1, 0.2, 1.0]))
        out = setstats.compute_statistic("MinP", Z)
        assert out.statistic == pytest.approx(3.1)

    def test_hc_matches_direct_formula(self, rng):
        d = 12
        Z = setstats.ZVector(rng.standard_normal(d) * 1.8)
        out = setstats.compute_statistic("HC", Z, np.eye(d))
        best = 0.0
        for j in range(1, d // 2 + 1):
            t = Z.abs_order[d - j]
            pi0 = 2 * gauss.norm_sf(t)
            if pi0 < j / d:
                best = max(best, (j - d * pi0) ** 2 / (d * pi0 * (1 - pi0)))
        assert out.statistic == pytest.approx(best, rel=1e-12)

    def test_sign_and_permutation_invariance(self, rng):
        d = 9
        Sigma = rand_corr(d, rng)
        z = rng.multivariate_normal(np.zeros(d), Sigma) + 0.8
        perm = rng.permutation(d)
        for method in setstats.ALL_METHODS:
            base = setstats.compute_statistic(method, setstats.ZVector(z), Sigma)
            neg = setstats.compute_statistic(method, setstats.ZVector(-z), Sigma)
            shuf = setstats.compute_statistic(
                method, setstats.ZVector(z[perm]), Sigma[np.ix_(perm, perm)])
            assert base.statistic == pytest.approx(neg.statistic, rel=1e-12)
            assert base.statistic == pytest.approx(shuf.statistic, rel=1e-12)

    def test_inflating_largest_never_decreases(self, rng):
        d = 10
        Sigma = exchangeable(d, 0.2)
        z = np.sort(np.abs(rng.standard_normal(d) * 1.3))
        z2 = z.copy()
        z2[-1] = z2[-1] + 1.5
        for method in ("MinP", "HC", "GHC"):
            a = setstats.compute_statistic(method, setstats.ZVector(z), Sigma)
            b = setstats.compute_statistic(method, setstats.ZVector(z2), Sigma)
            assert b.statistic >= a.statistic - 1e-12

    def test_inflating_largest_grows_gbj_when_top_index_achieves(self):
        d = 8
        Sigma = exchangeable(d, 0.2)
        z = np.array([0.1, 0.2, 0.3, 0.2, 0.1, 0.4, 0.3, 3.6])
        base = setstats.compute_statistic("GBJ", setstats.ZVector(z), Sigma)
        assert base.achieving_index == 1
        for bump in (0.5, 1.0, 2.0):
            z2 = z.copy()
            z2[-1] += bump
            grown = setstats.compute_statistic("GBJ", setstats.ZVector(z2), Sigma)
            assert grown.statistic >= base.statistic - 1e-12

    def test_achieving_index_matches_exhaustive_scan(self, rng):
        d = 14
        Sigma = exchangeable(d, 0.25)
        prof = exceedance.corr_powers(Sigma)
        Z = setstats.ZVector(rng.multivariate_normal(np.zeros(d), Sigma) + 1.0)
        out = setstats.compute_statistic("GBJ", Z, Sigma)
        if out.indicator_ever_true:
            # non-qualifying indices contribute zero through the indicator
            vals = {}
            for j in range(1, d // 2 + 1):
                t = Z.abs_order[d - j]
                if 2 * gauss.norm_sf(t) < j / d:
                    vals[j] = setstats.objective_values("GBJ", np.array([t]), np.array([j]),
                                                        d, prof)[0][0]
            jstar = max(vals, key=vals.get)
            if vals[jstar] > 0:
                assert out.achieving_index == jstar
                assert out.statistic == pytest.approx(vals[jstar], rel=1e-12)
            else:
                assert out.statistic == 0.0
                assert out.achieving_index is None

    def test_d1_only_minp(self):
        Z = setstats.ZVector(np.array([1.5]))
        assert setstats.compute_statistic("MinP", Z).statistic == 1.5
        for method in ("GBJ", "BJ", "HC", "GHC"):
            with pytest.raises(DegenerateInputError):
                setstats.compute_statistic(method, Z, np.eye(1))

    def test_dimension_mismatch(self):
        Z = setstats.ZVector(np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            setstats.compute_statistic("GBJ", Z, np.eye(3))

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            setstats.compute_statistic("XYZ", setstats.ZVector(np.array([1.0, 2.0])), np.eye(2))


class TestZVector:
    def test_order_statistics_cached(self):
        Z = setstats.ZVector(np.array([-2.0, 0.5, 1.0]))
        np.testing.assert_allclose(Z.abs_order, [0.5, 1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            setstats.ZVector(np.array([1.0, np.nan]))
        with pytest.raises(DomainError):
            setstats.ZVector(np.array([np.inf]))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            setstats.ZVector(np.array([]))
