import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gbjtest import gauss
from gbjtest.errors import BracketError, DomainError


def normal_quantile_oracle(p):
    """Invert the CDF obtained by adaptive quadrature of the density."""
    def cdf(t):
        val, _ = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
                      -9.0, t, epsabs=1e-13, epsrel=1e-12)
        return val
    lo, hi = -8.0, 8.0
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStdNormal:
    def test_at_zero(self):
        pdf, cdf, sf = gauss.std_normal(0.0)
        assert cdf == 0.5
        assert sf == 0.5
        assert abs(pdf - 0.3989422804014327) < 1e-15

    def test_tail_value_against_quadrature(self):
        # sf(1.959964) from quadrature of the density
        val, _ = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
                      1.959964, 12.0, epsabs=1e-13)
        assert abs(gauss.std_normal(1.959964).sf - val) < 1e-12
        assert abs(gauss.std_normal(1.959964).sf - 0.025) < 1e-6

    def test_symmetry(self, rng):
        for t in rng.uniform(-8, 8, size=50):
            assert gauss.std_normal(-t).cdf == gauss.std_normal(t).sf

    def test_complement_identity(self, rng):
        t = rng.uniform(-10, 10, size=1_000_000)
        total = gauss.norm_cdf(t) + gauss.norm_sf(t)
        assert np.max(np.abs(total - 1.0)) < 1e-14

    def test_moderate_tail_absolute_accuracy(self):
        for t in (-8, -5.5, -2.2, -0.7, 0.4, 1.3, 3.0, 6.1, 8.0):
            val, _ = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
                          t, 14.0, epsabs=1e-15, epsrel=1e-13)
            assert abs(gauss.std_normal(t).sf - val) < 1e-12

    def test_extreme_tail_relative_accuracy(self):
        import mpmath
        mpmath.mp.dps = 60
        for t in (10.0, 16.0, 24.0, 31.0, 37.0):
            want = float(mpmath.ncdf(-t))
            assert abs(gauss.std_normal(t).sf / want - 1) < 1e-10
        # at t = 38 the value itself is subnormal; relative accuracy is then
        # capped by representability (~2e-8), not by the algorithm
        want38 = float(mpmath.ncdf(-38))
        assert abs(gauss.std_normal(38.0).sf / want38 - 1) < 1e-7

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            gauss.std_normal(float("nan"))
        with pytest.raises(DomainError):
            gauss.std_normal(float("inf"))


class TestStdNormalInv:
    def test_median(self):
        assert gauss.std_normal_inv(0.5) == 0.0

    def test_975_quantile(self):
        oracle = normal_quantile_oracle(0.975)
        assert abs(gauss.std_normal_inv(0.975) - oracle) < 1e-5
        assert abs(gauss.std_normal_inv(0.975) - 1.959964) < 1e-5

    def test_antisymmetry(self):
        assert abs(gauss.std_normal_inv(0.025) + gauss.std_normal_inv(0.975)) < 1e-12

    def test_round_trip(self, rng):
        for p in rng.uniform(1e-6, 1 - 1e-6, size=200):
            assert abs(gauss.std_normal(gauss.std_normal_inv(p)).cdf - p) < 1e-10

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                gauss.std_normal_inv(bad)


class TestHermite:
    def test_low_orders(self):
        assert gauss.hermite(0, 3.7) == 1.0
        assert gauss.hermite(2, 3.0) == 8.0       # t^2 - 1
        assert gauss.hermite(3, 2.0) == 2.0       # t^3 - 3t

    def test_recurrence_identity(self, rng):
        ts = rng.uniform(-5, 5, size=1000)
        for t in ts:
            for r in range(1, 20):
                lhs = gauss.hermite(r + 1, t)
                rhs = t * gauss.hermite(r, t) - r * gauss.hermite(r - 1, t)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)

    def test_normalized_matches_raw(self):
        t = 1.7
        h = gauss.hermite_normalized(12, np.array(t))
        for r in range(12):
            assert h[r] == pytest.approx(gauss.hermite(r, t) / math.sqrt(math.factorial(r)),
                                         rel=1e-12)

    def test_order_limits(self):
        with pytest.raises(DomainError):
            gauss.hermite(-1, 0.0)
        with pytest.raises(DomainError):
            gauss.hermite(65, 0.0)


class TestBivarAbsTail:
    def test_independence_factorization(self):
        for t in (0.3, 1.1, 2.5):
            sf = gauss.std_normal(t).sf
            assert gauss.bivar_abs_tail(t, 0.0) == pytest.approx((2 * sf) ** 2, rel=1e-13)

    def test_zero_threshold(self):
        for rho in (-0.8, 0.0, 0.5):
            assert gauss.bivar_abs_tail(0.0, rho) == pytest.approx(1.0, abs=1e-14)

    def test_against_quadrature_oracle(self):
        for t, rho in [(1.0, 0.5), (0.5, 0.3), (2.0, 0.7), (3.0, -0.9), (2.5, 0.95)]:
            q = gauss.bivar_abs_tail_quadrature(t, rho)
            assert abs(gauss.bivar_abs_tail(t, rho) - q) < 1e-8

    def test_sign_symmetry(self, rng):
        for t in rng.uniform(0, 4, size=25):
            for rho in rng.uniform(0, 0.97, size=4):
                a = gauss.bivar_abs_tail(t, rho)
                b = gauss.bivar_abs_tail(t, -rho)
                assert a == pytest.approx(b, rel=1e-12, abs=1e-300)

    def test_monotone_in_threshold_and_correlation(self):
        ts = np.linspace(0.1, 4.0, 25)
        vals = [gauss.bivar_abs_tail(t, 0.4) for t in ts]
        assert np.all(np.diff(vals) < 0)
        rhos = np.linspace(0.0, 0.9, 19)
        vals = [gauss.bivar_abs_tail(1.5, r) for r in rhos]
        assert np.all(np.diff(vals) > 0)

    def test_vectorized_matches_scalar(self, rng):
        # the batch path stops the shared series on the worst element, so
        # agreement is at the accuracy contract, not bit level
        rhos = rng.uniform(-0.9, 0.9, size=20)
        many = gauss.bivar_abs_tail_many(1.3, rhos)
        for r, v in zip(rhos, many):
            assert v == pytest.approx(gauss.bivar_abs_tail(1.3, r), rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            gauss.bivar_abs_tail(-0.5, 0.2)
        with pytest.raises(DomainError):
            gauss.bivar_abs_tail(1.0, 1.0)


class TestMvnCdfSmall:
    def test_identity_power(self):
        for z in (-1.0, 0.0, 0.8, 2.0):
            want = gauss.std_normal(z).cdf ** 4
            assert gauss.mvn_cdf_small(z, np.eye(4)) == pytest.approx(want, abs=1e-6)

    def test_perfect_correlation_collapse(self):
        R = np.ones((4, 4))
        for z in (-0.5, 0.3, 1.7):
            assert gauss.mvn_cdf_small(z, R) == pytest.approx(gauss.std_normal(z).cdf,
                                                              abs=1e-12)

    def test_orthant_closed_form(self):
        for rho in (-0.7, -0.2, 0.3, 0.8):
            R = np.array([[1.0, rho], [rho, 1.0]])
            want = 0.25 + math.asin(rho) / (2 * math.pi)
            assert gauss.mvn_cdf_small(0.0, R) == pytest.approx(want, abs=1e-10)

    def test_monotone_and_bounded(self, rng):
        from tests.conftest import rand_corr
        R = rand_corr(4, rng)
        zs = np.linspace(-2, 2, 9)
        vals = [gauss.mvn_cdf_small(z, R) for z in zs]
        assert np.all(np.diff(vals) >= -1e-9)
        for z, v in zip(zs, vals):
            assert v <= gauss.std_normal(z).cdf + 1e-9

    def test_effective_error_recorded(self, rng):
        from tests.conftest import rand_corr
        R = rand_corr(3, rng)
        p, err = gauss.mvn_cdf_small(0.4, R, return_error=True)
        assert 0 <= p <= 1 and err < 1e-5

    def test_dimension_and_validity_errors(self):
        with pytest.raises(DomainError):
            gauss.mvn_cdf_small(0.0, np.eye(5))
        bad = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(DomainError):
            gauss.mvn_cdf_small(0.0, bad)


class TestMvnRect:
    def test_bitwise_deterministic(self, rng):
        from tests.conftest import rand_corr
        R = rand_corr(5, rng)
        lo, hi = -np.ones(5), np.array([0.5, 1.0, 1.5, 2.0, 0.2])
        assert gauss.mvn_rect(lo, hi, R) == gauss.mvn_rect(lo, hi, R)
        assert gauss.mvn_cdf_small(0.7, R[:4, :4]) == gauss.mvn_cdf_small(0.7, R[:4, :4])

    def test_agrees_with_monte_carlo(self, rng):
        from tests.conftest import rand_corr
        for d in (3, 5, 7):
            R = rand_corr(d, rng)
            lo = -np.abs(rng.uniform(0.5, 2.0, d))
            hi = np.abs(rng.uniform(0.5, 2.0, d))
            p = gauss.mvn_rect(lo, hi, R)
            draws = rng.multivariate_normal(np.zeros(d), R, size=400_000)
            mc = np.mean(np.all((draws >= lo) & (draws <= hi), axis=1))
            se = math.sqrt(mc * (1 - mc) / 400_000)
            assert abs(p - mc) < 4 * se + 1e-5


class TestSymEigvals:
    def test_identity(self):
        np.testing.assert_allclose(gauss.sym_eigvals(np.eye(3)), [1, 1, 1])

    def test_diagonal_ordering(self):
        np.testing.assert_allclose(gauss.sym_eigvals(np.diag([3.0, 1.0, 2.0])), [3, 2, 1])

    def test_two_by_two_closed_form(self):
        for rho in (-0.6, 0.2, 0.9):
            got = gauss.sym_eigvals(np.array([[1.0, rho], [rho, 1.0]]))
            np.testing.assert_allclose(got, [1 + abs(rho), 1 - abs(rho)], atol=1e-12)

    def test_trace_identity(self, rng):
        M = rng.standard_normal((6, 6))
        M = M + M.T
        vals = gauss.sym_eigvals(M)
        assert abs(vals.sum() - np.trace(M)) < 1e-8 * max(1, np.abs(M).max())

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            gauss.sym_eigvals(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestFindRoot:
    def test_linear(self):
        assert gauss.find_root(lambda x: x - 2.0, 0.0, 5.0, 1e-12) == pytest.approx(2.0)

    def test_normal_quantile(self):
        root = gauss.find_root(lambda x: gauss.std_normal(x).cdf - 0.975, 0.0, 5.0, 1e-12)
        assert abs(root - 1.959964) < 1e-5

    def test_decreasing_function_within_tol(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.exp(-x) - 0.3

        for tol in (1e-3, 1e-8, 1e-12):
            calls.clear()
            root = gauss.find_root(f, 0.0, 10.0, tol)
            assert abs(root - math.log(1 / 0.3)) <= tol + 4e-16 * root
            assert all(0.0 <= x <= 10.0 for x in calls)
        fine = len(calls)
        calls.clear()
        gauss.find_root(f, 0.0, 10.0, 1e-2)
        assert len(calls) < fine

    def test_bracket_endpoints_returned(self):
        assert gauss.find_root(lambda x: 3.0 - x, 3.0, 8.0) == 3.0
        assert gauss.find_root(lambda x: x - 8.0, 3.0, 8.0) == 8.0

    def test_bracket_failure(self):
        with pytest.raises(BracketError):
            gauss.find_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-8)
        with pytest.raises(BracketError):
            gauss.find_root(lambda x: -math.exp(x), -1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(-10, 10))
def test_cdf_sf_complement_property(t):
    s = gauss.std_normal(t)
    assert abs(s.cdf + s.sf - 1.0) < 1e-14
