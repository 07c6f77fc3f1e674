import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri, roots_legendre

from gbjtest import gauss
from gbjtest.exceedance import correlation_model
from gbjtest.errors import BracketError, DomainError
from tests.conftest import (bivar_abs_tail_quadrature, hermite, lattice_integral_reference,
                            rand_corr)


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
    """``norm_sf``; the CDF is norm_sf(-t)."""

    def test_at_zero(self):
        assert gauss.norm_sf(-0.0) == 0.5
        assert gauss.norm_sf(0.0) == 0.5

    def test_tail_value_against_quadrature(self):
        # sf(1.959964) from quadrature of the density
        val, _ = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
                      1.959964, 12.0, epsabs=1e-13)
        assert abs(gauss.norm_sf(1.959964) - val) < 1e-12
        assert abs(gauss.norm_sf(1.959964) - 0.025) < 1e-6

    def test_symmetry(self, rng):
        for t in rng.uniform(-8, 8, size=50):
            assert gauss.norm_sf(-t) == ndtr(t)

    def test_complement_identity(self, rng):
        t = rng.uniform(-10, 10, size=1_000_000)
        total = gauss.norm_sf(-t) + gauss.norm_sf(t)
        assert np.max(np.abs(total - 1.0)) < 1e-14

    def test_moderate_tail_absolute_accuracy(self):
        for t in (-8, -5.5, -2.2, -0.7, 0.4, 1.3, 3.0, 6.1, 8.0):
            val, _ = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
                          t, 14.0, epsabs=1e-15, epsrel=1e-13)
            assert abs(gauss.norm_sf(t) - val) < 1e-12

    def test_extreme_tail_relative_accuracy(self):
        import mpmath
        mpmath.mp.dps = 60
        ts = np.array([10.0, 16.0, 24.0, 31.0, 37.0])
        want = np.array([float(mpmath.ncdf(-t)) for t in ts])
        assert np.all(np.abs(gauss.norm_sf(ts) / want - 1) < 1e-10)
        # at t = 38 the value itself is subnormal; relative accuracy is then
        # capped by representability (~2e-8), not by the algorithm
        want38 = float(mpmath.ncdf(-38))
        assert abs(gauss.norm_sf(38.0) / want38 - 1) < 1e-7


class TestStdNormalInv:
    """The quantile the pipeline takes from ``scipy.special.ndtri`` (the
    indicator boundary t_min = ndtri(1 - j / 2d)), against ``norm_sf``."""

    def test_median(self):
        assert ndtri(0.5) == 0.0

    def test_975_quantile(self):
        oracle = normal_quantile_oracle(0.975)
        assert abs(ndtri(0.975) - oracle) < 1e-5
        assert abs(ndtri(0.975) - 1.959964) < 1e-5

    def test_antisymmetry(self):
        assert abs(ndtri(0.025) + ndtri(0.975)) < 1e-12

    def test_round_trip(self, rng):
        for p in rng.uniform(1e-6, 1 - 1e-6, size=200):
            assert abs(gauss.norm_sf(-ndtri(p)) - p) < 1e-10


class TestHermite:
    def test_low_orders(self):
        assert hermite(0, 3.7) == 1.0
        assert hermite(2, 3.0) == 8.0       # t^2 - 1
        assert hermite(3, 2.0) == 2.0       # t^3 - 3t

    def test_recurrence_identity(self, rng):
        ts = rng.uniform(-5, 5, size=1000)
        for t in ts:
            for r in range(1, 20):
                lhs = hermite(r + 1, t)
                rhs = t * hermite(r, t) - r * hermite(r - 1, t)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)

    def test_normalized_matches_raw(self):
        t = 1.7
        h = gauss.hermite_normalized(12, np.array(t))
        for r in range(12):
            assert h[r] == pytest.approx(hermite(r, t) / math.sqrt(math.factorial(r)),
                                         rel=1e-12)

    def test_order_limits(self):
        with pytest.raises(DomainError):
            hermite(-1, 0.0)
        with pytest.raises(DomainError):
            hermite(65, 0.0)


class TestBivarAbsTail:
    """``bivar_abs_tail_many``; a batch of one correlation runs the series to
    that correlation's own order."""

    def test_independence_factorization(self):
        for t in (0.3, 1.1, 2.5):
            sf = gauss.norm_sf(t)
            got = gauss.bivar_abs_tail_many(t, np.zeros(1))[0]
            assert got == pytest.approx((2 * sf) ** 2, rel=1e-13)

    def test_zero_threshold(self):
        got = gauss.bivar_abs_tail_many(0.0, np.array([-0.8, 0.0, 0.5]))
        np.testing.assert_allclose(got, 1.0, rtol=0.0, atol=1e-14)

    def test_against_quadrature_oracle(self):
        for t, rho in [(1.0, 0.5), (0.5, 0.3), (2.0, 0.7), (3.0, -0.9), (2.5, 0.95)]:
            q = bivar_abs_tail_quadrature(t, rho)
            assert abs(gauss.bivar_abs_tail_many(t, np.array([rho]))[0] - q) < 1e-8

    def test_sign_symmetry(self, rng):
        for t in rng.uniform(0, 4, size=25):
            for rho in rng.uniform(0, 0.97, size=4):
                a = gauss.bivar_abs_tail_many(t, np.array([rho]))[0]
                b = gauss.bivar_abs_tail_many(t, np.array([-rho]))[0]
                assert a == pytest.approx(b, rel=1e-12, abs=1e-300)

    def test_monotone_in_threshold_and_correlation(self):
        ts = np.linspace(0.1, 4.0, 25)
        vals = [gauss.bivar_abs_tail_many(t, np.array([0.4]))[0] for t in ts]
        assert np.all(np.diff(vals) < 0)
        rhos = np.linspace(0.0, 0.9, 19)
        vals = [gauss.bivar_abs_tail_many(1.5, np.array([r]))[0] for r in rhos]
        assert np.all(np.diff(vals) > 0)

    def test_vectorized_matches_scalar(self, rng):
        # the batch runs the series to the order its largest |rho| needs and
        # each batch of one to its own, so agreement is at the 1e-12 stopping
        # tolerance, not bit level
        rhos = rng.uniform(-0.9, 0.9, size=20)
        many = gauss.bivar_abs_tail_many(1.3, rhos)
        for r, v in zip(rhos, many):
            assert v == pytest.approx(gauss.bivar_abs_tail_many(1.3, np.array([r]))[0], rel=1e-9)
        rhos = rng.uniform(0.0, 0.95, size=2000) * rng.choice((-1.0, 1.0), size=2000)
        for t in (0.5, 2.0, 4.0, 6.0):
            many = gauss.bivar_abs_tail_many(t, rhos)
            one = np.array([gauss.bivar_abs_tail_many(t, np.array([r]))[0] for r in rhos])
            np.testing.assert_allclose(many, one, rtol=1e-11, atol=0.0)

    def test_threshold_vector_equals_scalar_calls(self, rng):
        # the series stops at a different order at each threshold, so the
        # shorter coefficient rows are zero-padded
        ts = np.array([2.0, 0.0, 6.0, 0.5, 4.0])
        for rhos in (np.array([0.3]), np.array([0.0, 0.5, 0.9]),
                     rng.uniform(-0.95, 0.95, size=2000)):
            many = gauss.bivar_abs_tail_many(ts, rhos)
            assert many.shape == (ts.size, rhos.size)
            for t, row in zip(ts, many):
                np.testing.assert_array_equal(row, gauss.bivar_abs_tail_many(t, rhos))
        assert gauss.bivar_abs_tail_many(ts, np.array([])).shape == (ts.size, 0)
        with pytest.raises(DomainError):
            gauss.bivar_abs_tail_many(np.array([1.0, -0.5, 2.0]), np.array([0.2]))

    @pytest.mark.parametrize("K", [1, 2, 15, 16, 17, 300])
    @pytest.mark.parametrize("x_max", [0.0, 0.25, 0.5184, 0.9025])
    def test_coefficient_builds_agree(self, K, x_max, rng):
        # the Python loop per threshold and the numpy recurrence across
        # thresholds give equal rows, so a threshold's tails do not depend
        # on the call it arrives in
        ts = rng.uniform(0.0, 37.0, size=K)
        ts[0] = 0.0
        ts[-1] = 37.0 if K > 1 else 0.0
        terms = gauss._series_terms(ts)
        scalar = gauss._series_coefs(*terms, x_max)
        assert scalar.shape[0] == K
        np.testing.assert_array_equal(gauss._series_coefs_many(*terms, x_max), scalar)

    def test_coefficient_builds_agree_at_the_order_cap(self):
        terms = gauss._series_terms(np.array([1.0, 5.0, 8.0, 0.3]))
        scalar = gauss._series_coefs(*terms, 0.97)
        # the rows at t = 5 and 8 stop at PAIR_SERIES_MAX_ORDER, not converged
        assert scalar.shape[1] == gauss.PAIR_SERIES_MAX_ORDER // 2
        np.testing.assert_array_equal(gauss._series_coefs_many(*terms, 0.97), scalar)

    def test_call_size_picks_the_build_not_the_values(self, rng, monkeypatch):
        vector = []
        many_build = gauss._series_coefs_many

        def record(t_list, *args):
            vector.append(len(t_list))
            return many_build(t_list, *args)

        monkeypatch.setattr(gauss, "_series_coefs_many", record)
        rhos = rng.uniform(-0.9, 0.9, size=7)
        ts = rng.uniform(0.0, 6.0, size=gauss.PAIR_VECTOR_MIN_THRESHOLDS)
        many = gauss.bivar_abs_tail_many(ts, rhos)
        short = gauss.bivar_abs_tail_many(ts[:-1], rhos)
        assert vector == [ts.size]
        np.testing.assert_array_equal(short, many[:-1])
        for t, row in zip(ts, many):
            np.testing.assert_array_equal(row, gauss.bivar_abs_tail_many(t, rhos))
        # a long call takes its thresholds PAIR_VECTOR_MAX_THRESHOLDS at a time
        monkeypatch.setattr(gauss, "PAIR_VECTOR_MAX_THRESHOLDS", 7)
        vector.clear()
        np.testing.assert_array_equal(gauss.bivar_abs_tail_many(ts, rhos), many)
        assert vector == [7, 7, 2]

    def test_empty_batch(self):
        out = gauss.bivar_abs_tail_many(2.0, np.array([]))
        assert out.shape == (0,) and out.dtype == float

    def test_domain(self):
        with pytest.raises(DomainError):
            gauss.bivar_abs_tail_many(-0.5, np.array([0.2]))
        with pytest.raises(DomainError):
            gauss.bivar_abs_tail_many(1.0, np.array([1.0]))
        with pytest.raises(DomainError):
            gauss.bivar_abs_tail_many(1.0, np.array([0.3, -1.0]))


class TestMvnCdfSmall:
    def test_identity_power(self):
        for z in (-1.0, 0.0, 0.8, 2.0):
            want = ndtr(z) ** 4
            assert gauss.mvn_cdf_small(z, np.eye(4)) == pytest.approx(want, abs=1e-6)

    def test_perfect_correlation_collapse(self):
        R = np.ones((4, 4))
        for z in (-0.5, 0.3, 1.7):
            assert gauss.mvn_cdf_small(z, R) == pytest.approx(ndtr(z), abs=1e-12)

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
            assert v <= ndtr(z) + 1e-9

    def test_measured_error_near_the_union_bound(self):
        # the error its docstring states: 1 - cdf is 2.16e-5 above the lower
        # bound 4c - 6 Pr(Z1 > z, Z2 > z), itself short of the true value
        # only by the positive triple terms
        c = 0.0025
        z = float(ndtri(1.0 - c))
        R = -0.3 * np.ones((4, 4)) + 1.3 * np.eye(4)
        pair = 1.0 - 2.0 * (1.0 - c) + gauss.bvn_cdf(z, z, -0.3)
        lower = 4.0 * c - 6.0 * pair
        assert abs((1.0 - gauss.mvn_cdf_small(z, R)) - lower) <= 3e-5

    def test_effective_error_recorded(self, rng):
        from tests.conftest import rand_corr
        R = rand_corr(3, rng)
        u = np.full(3, 0.4)
        L, a, b = gauss._cholesky_reordered(np.full(3, -38.0), u, R)
        p, err = gauss._lattice_integral(L, a, b, gauss.MVN_SMALL_NPTS, 8)
        assert 0 <= p <= 1 and err < 1e-5
        assert p == gauss.mvn_cdf_small(0.4, R)

    def test_open_lower_limits_skip_their_cdf(self, rng):
        # an open lower limit is -inf, whose CDF the lattice takes as 0
        # without ndtr; the integral is the one a -38 limit gave
        from tests.conftest import exchangeable, rand_corr
        for R in (rand_corr(3, rng), rand_corr(4, rng, factor=1), exchangeable(4, 0.9)):
            d = R.shape[0]
            lower, _, _ = gauss._dedup_perfect(0.7, R)
            assert np.all(np.isneginf(lower))
            for z in (-3.0, 0.4, 2.5):
                L, a, b = gauss._cholesky_reordered(np.full(d, -38.0), np.full(d, z), R)
                want, _ = gauss._lattice_integral(L, a, b, gauss.MVN_SMALL_NPTS, 8)
                assert gauss.mvn_cdf_small(z, R) == want

    def test_dimension_and_validity_errors(self):
        with pytest.raises(DomainError):
            gauss.mvn_cdf_small(0.0, np.eye(5))
        bad = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(DomainError):
            gauss.mvn_cdf_small(0.0, bad)


class TestLatticeIntegral:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_matches_the_reference_bit_for_bit(self, d):
        # the kernel that built every shift's points on each call; d <= 4
        # at 16,384 points and 8 shifts reads the kept points
        rng = np.random.default_rng(100 + d)
        R = rand_corr(d, rng, factor=1 + d % 3)
        upper = rng.uniform(-1.0, 2.5, d)
        for lower in (np.full(d, -np.inf), np.full(d, -38.0)):
            L, a, b = gauss._cholesky_reordered(lower, upper, R)
            for npts in (8192, gauss.MVN_SMALL_NPTS):
                for nshift in (8, 12):
                    want = lattice_integral_reference(L, a, b, npts, nshift)
                    assert gauss._lattice_integral(L, a, b, npts, nshift) == want

    def test_keeps_only_the_copula_points(self, rng):
        R = rand_corr(8, rng)
        L, a, b = gauss._cholesky_reordered(np.full(8, -np.inf), np.full(8, 1.2), R)
        gauss._lattice_integral(L[:4, :4], a[:4], b[:4], gauss.MVN_SMALL_NPTS, 8)
        assert gauss._small_lattice_points().shape == (8, 3, gauss.MVN_SMALL_NPTS)
        # an oracle-sized call builds its 7 x 131,072 points per shift and
        # keeps none of them: kept, all 12 shifts would be 84 MiB
        tracemalloc.start()
        try:
            gauss._lattice_integral(L, a, b, 131072, 12)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 2**20
        assert gauss._small_lattice_points.cache_info().currsize == 1


class TestBvnCdf:
    def test_values_of_the_96_point_rule(self, rng):
        nodes, weights = roots_legendre(96)
        for x, y, rho in rng.uniform((-3.0, -3.0, -0.99), (3.0, 3.0, 0.99), size=(20, 3)):
            r = 0.5 * rho * (nodes + 1.0)
            det = 1.0 - r * r
            dens = (np.exp(-(x * x - 2.0 * r * x * y + y * y) / (2.0 * det))
                    / (2.0 * np.pi * np.sqrt(det)))
            want = min(1.0, max(0.0, float(ndtr(x) * ndtr(y) + 0.5 * rho * np.dot(weights, dens))))
            assert gauss.bvn_cdf(x, y, rho) == want

    def test_rule_built_on_first_use(self):
        # a fresh interpreter: a GBJ p-value needs no Gauss-Legendre rule, so
        # scipy.linalg, which building it loads, stays out
        import gbjtest
        src = os.path.dirname(os.path.dirname(os.path.abspath(gbjtest.__file__)))
        code = ("import sys; import numpy as np; import gbjtest; "
                "S = np.full((5, 5), 0.3); np.fill_diagonal(S, 1.0); "
                "z = gbjtest.ZVector(np.array([2.5, 1.0, 0.3, -1.2, 3.1])); "
                "gbjtest.pvalue('GBJ', z, S); "
                "print('scipy.linalg' in sys.modules); "
                "gbjtest.gauss.bvn_cdf(0.3, -0.2, 0.5); "
                "print('scipy.linalg' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=120)
        assert out.stdout.split() == ["False", "True"]


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


class TestCheckCorrelation:
    def test_asymmetry_beyond_1e10_rejected(self):
        R = np.array([[1.0, 0.9], [0.9 + 8e-6, 1.0]])
        with pytest.raises(DomainError, match="symmetric"):
            gauss.check_correlation(R)
        R[1, 0] = 0.9 + 5e-11
        gauss.check_correlation(R)

    def test_diagonal_off_one_beyond_1e8_rejected(self):
        with pytest.raises(DomainError, match="unit diagonal"):
            gauss.check_correlation(np.array([[0.99999, 0.2], [0.2, 1.0]]))
        gauss.check_correlation(np.array([[1.0 - 5e-9, 0.2], [0.2, 1.0]]))

    def test_empty_or_non_square_rejected(self):
        for R in (np.zeros((0, 0)), np.ones((2, 3)), np.ones(3)):
            with pytest.raises(DomainError, match="square and non-empty"):
                gauss.check_correlation(R)

    def test_non_finite_entries_named(self):
        for bad in (np.nan, np.inf):
            R = np.eye(3)
            R[0, 2] = R[2, 0] = bad
            with pytest.raises(DomainError, match="finite"):
                gauss.check_correlation(R)
        with pytest.raises(DomainError, match="finite"):
            gauss.check_correlation(np.full((2, 2), np.nan))

    @pytest.mark.parametrize("d", [3, 10, 50])
    def test_psd_within_1e8(self, d):
        # exchangeable with rho = -(1 + delta) / (d - 1): its smallest
        # eigenvalue is 1 + (d - 1) rho = -delta
        for delta, accepted in ((-1e-6, True), (0.0, True), (0.8e-8, True),
                                (1.2e-8, False), (1e-6, False)):
            rho = -(1.0 + delta) / (d - 1)
            R = np.full((d, d), rho)
            np.fill_diagonal(R, 1.0)
            assert np.linalg.eigvalsh(R)[0] == pytest.approx(-delta, abs=1e-13)
            if accepted:
                assert gauss.check_correlation(R) is not None
            else:
                with pytest.raises(DomainError, match="not PSD"):
                    gauss.check_correlation(R)

    def test_returns_the_matrix_as_floats(self):
        R = np.array([[1, 0], [0, 1]])
        out = gauss.check_correlation(R)
        assert out.dtype == float
        np.testing.assert_array_equal(out, np.eye(2))


class TestSymEigvals:
    """Eigenvalues of ``CorrelationModel.eigvals``, non-increasing."""

    def test_identity(self):
        np.testing.assert_allclose(correlation_model(np.eye(3)).eigvals, [1, 1, 1])

    def test_diagonal_ordering(self):
        # Blocks {0} and {1, 2} with rho = 0.8: eigenvalues 1, 1.8, 0.2.
        R = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.8], [0.0, 0.8, 1.0]])
        np.testing.assert_allclose(correlation_model(R).eigvals, [1.8, 1.0, 0.2], atol=1e-12)

    def test_two_by_two_closed_form(self):
        for rho in (-0.6, 0.2, 0.9):
            got = correlation_model(np.array([[1.0, rho], [rho, 1.0]])).eigvals
            np.testing.assert_allclose(got, [1 + abs(rho), 1 - abs(rho)], atol=1e-12)

    def test_trace_identity(self, rng):
        W = rng.standard_normal((6, 6))
        S = W @ W.T
        dh = 1.0 / np.sqrt(np.diag(S))
        R = S * dh[:, None] * dh[None, :]
        vals = correlation_model(R).eigvals
        assert abs(vals.sum() - np.trace(R)) < 1e-8


class TestFindRoot:
    def test_linear(self):
        assert gauss.find_root(lambda x: x - 2.0, 0.0, 5.0, 1e-12) == pytest.approx(2.0)

    def test_normal_quantile(self):
        root = gauss.find_root(lambda x: gauss.norm_sf(-x) - 0.975, 0.0, 5.0, 1e-12)
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
    assert abs(gauss.norm_sf(-t) + gauss.norm_sf(t) - 1.0) < 1e-14
