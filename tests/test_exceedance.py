import math

import numpy as np
import pytest
from scipy.special import ndtr, roots_legendre

from gbjtest import crossing, exceedance, gauss, omnibus, setstats
from gbjtest.errors import DomainError
from tests.conftest import exchangeable, rand_corr

_GLX, _GLW = roots_legendre(240)


def pair_count_variance_quadrature(t, mu, rho):
    """Oracle at d = 2: Var(#{|Z_i| >= t}) for MVN(mu*1, [[1,rho],[rho,1]])
    via Gauss-Legendre integration of the joint density over [-t, t]^2."""
    x = 0.5 * (_GLX + 1.0) * (2 * t) - t
    w = _GLW * t
    det = 1 - rho * rho
    X, Y = np.meshgrid(x - mu, x - mu)
    dens = np.exp(-(X * X - 2 * rho * X * Y + Y * Y) / (2 * det)) / (2 * math.pi * math.sqrt(det))
    both_below = float(w @ dens @ w)
    below = ndtr(t - mu) - ndtr(-t - mu)
    lam = 1 - below
    both_above = 1 - 2 * below + both_below
    return 2 * lam * (1 - lam) + 2 * (both_above - lam * lam)


class TestCorrelationModel:
    def test_two_by_two_closed_form(self):
        np.testing.assert_array_equal(exceedance.correlation_model(np.eye(3)).eigvals, [1, 1, 1])
        for rho in (-0.6, 0.2, 0.9):
            got = exceedance.correlation_model(np.array([[1.0, rho], [rho, 1.0]])).eigvals
            np.testing.assert_allclose(got, [1 + abs(rho), 1 - abs(rho)], atol=1e-12)

    def test_eigenvalues_on_first_use(self):
        S = exchangeable(6, 0.3)
        model = exceedance.correlation_model(S)
        crossing.pvalue("GBJ", setstats.ZVector(np.linspace(-1.0, 3.0, 6)), model)
        assert "eigvals" not in vars(model)
        omnibus.skat_lite(setstats.ZVector(np.linspace(-1.0, 3.0, 6)), model)
        np.testing.assert_array_equal(vars(model)["eigvals"],
                                      np.linalg.eigvalsh(S)[::-1])

    def test_eigenvalues_non_increasing_and_sum_to_d(self, rng):
        vals = exceedance.correlation_model(rand_corr(6, rng, factor=1)).eigvals
        assert np.all(np.diff(vals) <= 0.0)
        assert abs(vals.sum() - 6.0) < 1e-12

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError, match="symmetric"):
            exceedance.correlation_model(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_model_passes_through_and_pairs_mark_perfect(self):
        S = exchangeable(3, 0.4)
        S[0, 1] = S[1, 0] = 1.0
        model = exceedance.correlation_model(S)
        assert exceedance.correlation_model(model) is model
        np.testing.assert_array_equal(model.pairs, [1.0, 0.4, 0.4])
        summary = model.pair_summary
        assert summary.n_perfect == 1
        np.testing.assert_array_equal(summary.rhos, [0.4])
        np.testing.assert_array_equal(summary.counts, [2.0])
        assert exceedance.correlation_model(np.eye(3)).pair_summary.n_perfect == 0

    def test_model_or_array_give_identical_results(self):
        S = exchangeable(8, 0.35)
        Z = setstats.ZVector(np.linspace(-2.0, 3.8, 8))
        model = exceedance.correlation_model(S)
        for method in setstats.ALL_METHODS:
            a, b = crossing.pvalue(method, Z, S), crossing.pvalue(method, Z, model)
            assert (a.statistic, a.pvalue, a.diagnostics) == (b.statistic, b.pvalue, b.diagnostics)
        for method in ("GBJ", "HC"):
            np.testing.assert_array_equal(crossing.rejection_region(method, 0.05, 8, S).b,
                                          crossing.rejection_region(method, 0.05, 8, model).b)
        assert omnibus.skat_lite(Z, S) == omnibus.skat_lite(Z, model)

    def test_omnibus_validates_sigma_once(self, monkeypatch):
        shapes = []
        check = gauss.check_correlation

        def counted(R):
            shapes.append(np.shape(R))
            return check(R)
        monkeypatch.setattr(gauss, "check_correlation", counted)
        d = 10
        omnibus.omnibus_test(setstats.ZVector(np.linspace(-1.5, 3.5, d)),
                             exchangeable(d, 0.3), B=20)
        assert shapes.count((d, d)) == 1


class TestCorrPowers:
    def test_identity_is_zero(self):
        prof = exceedance.corr_powers(np.eye(5))
        assert np.all(prof.rbar == 0.0)

    def test_exchangeable_powers(self):
        prof = exceedance.corr_powers(exchangeable(4, 0.3), r_max=6)
        np.testing.assert_allclose(prof.rbar, [0.3 ** r for r in range(1, 7)], rtol=1e-13)

    def test_hand_average_d3(self):
        S = np.eye(3)
        S[0, 1] = S[1, 0] = 0.1
        S[0, 2] = S[2, 0] = 0.2
        S[1, 2] = S[2, 1] = 0.4
        prof = exceedance.corr_powers(S, r_max=2)
        assert prof.rbar[0] == pytest.approx((0.1 + 0.2 + 0.4) / 3, rel=1e-14)
        assert prof.rbar[1] == pytest.approx((0.01 + 0.04 + 0.16) / 3, rel=1e-14)

    def test_high_correlation_flagged(self):
        assert exceedance.corr_powers(exchangeable(3, 0.97)).high_corr
        assert not exceedance.corr_powers(exchangeable(3, 0.5)).high_corr

    def test_malformed_rejected(self):
        with pytest.raises(DomainError):
            exceedance.corr_powers(np.array([[1.0, 0.5], [0.6, 1.0]]))


class TestCountMean:
    """E S(t) = d * exceed_prob(t, mu)."""

    def test_null_tail_value(self):
        # 2 d sf(t) at the 0.025 two-sided point
        assert 100 * exceedance.exceed_prob(1.959964, 0.0) == pytest.approx(5.0, abs=1e-4)

    def test_zero_threshold(self):
        assert 12 * exceedance.exceed_prob(0.0, 0.7) == pytest.approx(12.0)

    def test_mu_equals_t_substitution(self):
        for t in (0.5, 1.5, 3.0):
            want = 7 * (0.5 + ndtr(-2 * t))
            assert 7 * exceedance.exceed_prob(t, t) == pytest.approx(want, rel=1e-12)

    def test_negative_threshold_rejected(self):
        with pytest.raises(DomainError):
            exceedance.count_variance(-0.1, 0.0, exceedance.zero_profile(3))


class TestCountVariance:
    def test_independence_is_binomial(self):
        prof = exceedance.zero_profile(9)
        for t, mu in [(0.8, 0.0), (2.0, 1.0)]:
            lam = exceedance.exceed_prob(t, mu)
            want = 9 * lam * (1 - lam)
            assert float(exceedance.count_variance(t, mu, prof)) == pytest.approx(want, rel=1e-13)

    def test_quadrature_oracle_d2(self):
        for rho in (0.2, 0.5, 0.8):
            prof = exceedance.corr_powers(exchangeable(2, rho), r_max=40)
            for t in (0.5, 1.0, 2.0, 3.0):
                for mu in (0.0, 1.0, 2.0):
                    got = float(exceedance.count_variance(t, mu, prof))
                    want = pair_count_variance_quadrature(t, mu, rho)
                    assert got == pytest.approx(want, rel=5e-4)

    def test_sign_of_mu_irrelevant(self, rng):
        prof = exceedance.corr_powers(rand_corr(6, rng))
        for t, mu in [(0.7, 0.4), (2.2, 1.5), (1.1, 3.0)]:
            a = float(exceedance.count_variance(t, mu, prof))
            b = float(exceedance.count_variance(t, -mu, prof))
            assert a == pytest.approx(b, rel=1e-13)

    def test_monte_carlo_agreement(self, rng):
        for d, Sigma in ((5, exchangeable(5, 0.3)), (20, rand_corr(20, rng))):
            prof = exceedance.corr_powers(Sigma, r_max=25)
            mu, t = 0.6, 1.4
            n = 400_000
            Z = rng.multivariate_normal(np.full(d, mu), Sigma, size=n)
            s = (np.abs(Z) >= t).sum(axis=1).astype(float)
            var_emp = s.var(ddof=1)
            m4 = np.mean((s - s.mean()) ** 4)
            se = math.sqrt(max(m4 - var_emp ** 2, 1e-12) / n)
            want = float(exceedance.count_variance(t, mu, prof))
            assert abs(var_emp - want) < 4 * se

    def test_truncation_stability_moderate_correlation(self):
        # adding terms 11..20 barely moves the result at mild correlation;
        # the visible tail grows with rho (measured: ~4e-5 at 0.5, ~3e-3 at
        # 0.7 in the worst grid corner t=4, mu=0)
        budgets = {0.2: 1e-6, 0.5: 1e-4, 0.7: 5e-3}
        for rho, budget in budgets.items():
            p10 = exceedance.corr_powers(exchangeable(4, rho), r_max=10)
            p20 = exceedance.corr_powers(exchangeable(4, rho), r_max=20)
            for t in (0.5, 1.5, 3.0, 4.0):
                for mu in (0.0, 1.0, 4.0):
                    a = float(exceedance.count_variance(t, mu, p10))
                    b = float(exceedance.count_variance(t, mu, p20))
                    assert abs(a - b) / b < budget

    def test_positive(self, rng):
        prof = exceedance.corr_powers(rand_corr(8, rng, factor=1))
        t = np.linspace(0.05, 6, 40)
        assert np.all(exceedance.count_variance(t, 0.0, prof) > 0)

