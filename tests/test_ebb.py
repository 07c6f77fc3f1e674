import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import betabinom, binom

from gbjtest import ebb
from gbjtest.ebb import _log_factor_prefixes, gamma_floor, match_gamma
from tests.conftest import transition_reference


def random_feasible(rng, d):
    lam = rng.uniform(0.05, 0.95)
    floor = gamma_floor(lam, d)
    gamma = rng.uniform(0.7 * floor, 0.6)
    return lam, gamma


def moments(p):
    v = np.arange(p.size)
    mean = float(p @ v)
    return mean, float(p @ (v * v)) - mean * mean


class TestLogPmf:
    """The pmf rows of ``transition_reference``, the table the count loop's
    steps are checked against (``tests/test_crossing.py::TestCountLoop``)."""

    def test_binomial_case(self):
        p = transition_reference([10], 10, 0.5, 0.0)[0]
        assert p[5] == pytest.approx(252 / 1024, rel=1e-14)

    def test_direct_products(self):
        # d=2, lam=0.3, gamma=0.1
        p = transition_reference([2], 2, 0.3, 0.1)[0]
        assert p[0] == pytest.approx(0.7 * 0.8 / 1.1, rel=1e-13)
        assert p[2] == pytest.approx(0.3 * 0.4 / 1.1, rel=1e-13)

    def test_normalization(self, rng):
        for d in (2, 10, 100, 500):
            for _ in range(50):
                lam, gamma = random_feasible(rng, d)
                assert abs(transition_reference([d], d, lam, gamma)[0].sum() - 1.0) < 1e-10

    def test_binomial_reduction_all_v(self, rng):
        for d in (2, 5, 17, 50, 100):
            lam = rng.uniform(0.05, 0.95)
            want = binom.pmf(np.arange(d + 1), d, lam)
            np.testing.assert_allclose(transition_reference([d], d, lam, 0.0)[0], want, rtol=1e-12)

    def test_moment_identities(self, rng):
        for d in (5, 30, 200):
            for _ in range(20):
                lam, gamma = random_feasible(rng, d)
                mean, var = moments(transition_reference([d], d, lam, gamma)[0])
                assert mean == pytest.approx(d * lam, abs=1e-8)
                want = d * lam * (1 - lam) * (1 + (d - 1) * gamma / (1 + gamma))
                assert var == pytest.approx(want, abs=1e-8)

    def test_support_checked(self):
        # row m is supported on 0 .. m: every entry past m is exactly zero
        rows = transition_reference(np.arange(5), 4, 0.4, 0.05)
        for m in range(5):
            assert np.all(rows[m, m + 1:] == 0.0)
            assert np.all(rows[m, : m + 1] > 0.0)

    def test_rows_match_betabinom(self, rng):
        # EBB(m, lam, gamma) with gamma > 0 is the beta-binomial with
        # alpha = lam / gamma, beta = (1 - lam) / gamma
        for size in (3, 12, 60, 200):
            for _ in range(10):
                lam = rng.uniform(0.02, 0.98)
                gamma = rng.uniform(1e-3, 2.0)
                ms = np.arange(size)
                rows = transition_reference(ms, size, lam, gamma)
                for m in ms:
                    want = betabinom.pmf(np.arange(m + 1), m, lam / gamma, (1.0 - lam) / gamma)
                    np.testing.assert_allclose(rows[m, : m + 1], want, rtol=1e-10)
                    assert np.all(rows[m, m + 1:] == 0.0)

    def test_rows_are_per_size_pmfs(self, rng):
        # one call for many sizes gives each size's own pmf, underdispersed too
        size = 40
        lam = 0.3
        gamma = 0.8 * gamma_floor(lam, size)
        ms = np.array([40, 7, 0, 23])
        rows = transition_reference(ms, size, lam, gamma)
        for row, m in zip(rows, ms):
            np.testing.assert_allclose(row[: m + 1], transition_reference([m], m, lam, gamma)[0],
                                       rtol=1e-12)


class TestParams:
    def test_infeasible_identifies_factor(self):
        # the feasibility floor follows the factor that reaches zero first:
        # 1 - lambda + gamma*k at lambda > 1/2, lambda + gamma*k below
        assert gamma_floor(0.9, 10) == pytest.approx(-0.1 / 9, rel=1e-12)
        assert gamma_floor(0.1, 10) == pytest.approx(-0.1 / 9, rel=1e-12)
        assert gamma_floor(0.3, 10) == pytest.approx(-0.3 / 9, rel=1e-12)
        assert gamma_floor(np.array([0.6, 0.2]), 5).tolist() == pytest.approx([-0.1, -0.05])
        assert gamma_floor(0.4, 1) == -np.inf


class TestMatch:
    """``match_gamma``: the dispersion reproducing an indicator correlation."""

    def test_binomial_variance_gives_zero_gamma(self):
        d, lam = 12, 0.35
        gamma, clamped = match_gamma(lam, 0.0, d)
        assert gamma == pytest.approx(0.0, abs=1e-14)
        assert not clamped

    def test_hand_inverted_gamma(self):
        # d=10, lam=0.2, variance twice binomial: gamma/(1+gamma) = 1/9
        d, lam = 10, 0.2
        base = d * lam * (1 - lam)
        gamma, _ = match_gamma(lam, 1.0 / 9.0, d)
        assert gamma == pytest.approx(0.125, rel=1e-12)
        var = moments(transition_reference([d], d, lam, gamma)[0])[1]
        assert var == pytest.approx(2 * base, rel=1e-10)

    def test_mean_always_exact(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 60))
            mean = rng.uniform(0.2, d - 0.2)
            lam = mean / d
            var = rng.uniform(0.3, 1.8) * d * lam * (1 - lam)
            base = d * lam * (1 - lam)
            gamma, _ = match_gamma(lam, (var - base) / ((d - 1) * base), d)
            got = moments(transition_reference([d], d, lam, gamma)[0])[0]
            assert got == pytest.approx(mean, rel=1e-12)

    def test_round_trip(self, rng):
        for d in (4, 25, 120):
            for _ in range(25):
                lam, gamma = random_feasible(rng, d)
                got, clamped = match_gamma(lam, gamma / (1.0 + gamma), d)
                assert got == pytest.approx(gamma, abs=1e-8)
                assert not clamped

    def test_underdispersion_clamp_flagged(self):
        d, lam = 10, 0.3
        gamma, clamped = match_gamma(lam, (1e-4 - 1.0) / (d - 1), d)
        assert clamped
        assert gamma > gamma_floor(lam, d)
        # binomial, over- and underdispersed, beyond the ceiling, below the
        # floor, one entry each
        d = 8
        lam = np.array([0.35, 0.2, 0.6, 0.5, 0.3, 0.9, 1e-9])
        ratio = (np.array([1.0, 2.5, 0.6, 2.0 * d, 1e-4, 1e-6, 3.0]) - 1.0) / (d - 1)
        gamma, clamped = match_gamma(lam, ratio, d)
        assert clamped.tolist() == [False, False, False, True, True, True, False]
        assert np.all(gamma > gamma_floor(lam, d))

    def test_overdispersion_ceiling_clamp(self):
        d, lam = 6, 0.5
        gamma, clamped = match_gamma(lam, (2.0 * d - 1.0) / (d - 1), d)
        assert clamped
        assert np.isfinite(gamma) and gamma > 0.0


@pytest.mark.parametrize("size", [2, 7, 64, 500])
def test_factor_below_the_rounding_of_one(size):
    # lam as crossing_pvalue clips it and gamma at match_gamma's low clamp:
    # the last factor 1 - lam + gamma (size - 1), about 1.1e-22, is below
    # what 1 + (gamma k - lam) can hold, and is taken as (1 - lam) + gamma k
    lam = 1.0 - 1e-16
    gamma, clamped = match_gamma(lam, -1.0, size)
    assert clamped
    gamma = float(gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = transition_reference([size], size, lam, gamma)[0]
        pre_a, pre_b, pre_c = _log_factor_prefixes(size, lam, gamma)
    # Pr(V = 0) of EBB(size, lam, gamma), exactly in the float lam and gamma
    L, G = Fraction(lam), Fraction(gamma)
    factors = [(1 - L + G * k) / (1 + G * k) for k in range(size)]
    assert all(f > 0 for f in factors)
    log_want = math.fsum(math.log(f) for f in factors)
    assert pre_a[0] + pre_b[size] - pre_c[size] == pytest.approx(log_want, rel=1e-12, abs=0)
    exact = math.prod(factors)
    if exact >= np.finfo(float).tiny:
        # sizes 2 and 7; from 64 on the product is below the smallest double
        assert row[0] > 0.0
        assert row[0] == pytest.approx(float(exact), rel=1e-12, abs=0)


def test_broadcast_prefixes_equal_per_row_prefixes(rng):
    d = 30
    lam = rng.uniform(0.05, 0.95, size=(3, 4))
    gamma = rng.uniform(0.7, 1.0, size=(3, 4)) * gamma_floor(lam, d)
    gamma[0] = rng.uniform(0.0, 0.6, size=4)
    pre = _log_factor_prefixes(d, lam, gamma)
    assert all(p.shape == (3, 4, d + 1) for p in pre)
    for idx in np.ndindex(3, 4):
        row = _log_factor_prefixes(d, lam[idx], gamma[idx])
        for p, r in zip(pre, row):
            assert np.array_equal(p[idx], r)
    # a scalar gamma broadcasts against an array of lambda
    _, pre_b, _ = _log_factor_prefixes(d, lam[0], 0.0)
    assert np.array_equal(pre_b[2], np.cumsum(np.r_[0.0, np.full(d, np.log1p(-lam[0, 2]))]))


class TestClosedFormSums:
    """``ebb._log_rising``, the closed form of the three log-factor sums."""

    def test_no_less_accurate_than_the_prefix_tables(self):
        # sums over k < n of log(lam + gamma k), log(1 - lam + gamma k) and
        # log(1 + gamma k), each term as the prefix tables take it, summed
        # exactly by math.fsum
        closed_err, prefix_err = 0.0, 0.0
        for d in (2, 3, 10, 63, 64, 100, 500, 1000, 2000):
            ns = sorted({1, d // 2, d})
            for lam in (1e-300, 1e-20, 1e-8, 1e-3, 0.1, 0.5, 0.9, 0.99):
                floor = float(gamma_floor(lam, d)) if d > 1 else 0.0
                gammas = [0.0] + [10.0 ** e for e in range(-16, 13, 2)] + [
                    floor * f for f in (1e-12, 0.5, 1.0 - 1e-6)]
                for gamma in gammas:
                    pre = _log_factor_prefixes(d, lam, gamma)
                    terms = ([math.log(lam + gamma * k) for k in range(d)],
                             [math.log1p(gamma * k - lam) for k in range(d)],
                             [math.log1p(gamma * k) for k in range(d)])
                    n = np.array(ns * 3, dtype=float)
                    v = np.repeat([lam, -lam, 0.0], len(ns))
                    got = ebb._log_rising(v, np.full(n.size, gamma), n, len(ns))
                    for i, (fam, m) in enumerate((f, m) for f in range(3) for m in ns):
                        exact = math.fsum(terms[fam][:m])
                        closed_err = max(closed_err, abs(got[i] - exact))
                        prefix_err = max(prefix_err, abs(pre[fam][m] - exact))
                        # and within rounding of the sum's own size
                        assert abs(got[i] - exact) <= 1e-12 * max(1.0, abs(exact)), (
                            d, lam, gamma, fam, m)
        assert closed_err <= prefix_err

    @pytest.mark.parametrize("size", [ebb.CLOSED_FORM_MIN_SIZE - 1, ebb.CLOSED_FORM_MIN_SIZE, 300])
    def test_kernel_matches_the_prefix_tables(self, rng, size):
        m = 40
        a = rng.integers(1, size, size=m)
        lam = 10.0 ** rng.uniform(-12.0, -0.05, size=m)
        gamma = rng.uniform(0.0, 3.0, size=m)
        gamma[:10] = 0.0
        gamma[10:20] = rng.uniform(0.1, 0.99, size=10) * gamma_floor(lam[10:20], size)
        pre_a, pre_b, pre_c = _log_factor_prefixes(size, lam, gamma)
        rows = np.arange(m)
        want = pre_a[rows, a] + pre_b[rows, size - a] - pre_c[:, size]
        got = ebb.log_kernel(a, size, lam, gamma)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-11)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 200), st.floats(0.02, 0.98), st.floats(0.0, 1.0))
def test_pmf_normalizes_for_any_feasible_parameters(d, lam, gfrac):
    floor = gamma_floor(lam, d)
    gamma = floor * 0.8 + gfrac * (0.7 - floor * 0.8)
    assert abs(transition_reference([d], d, lam, gamma)[0].sum() - 1.0) < 1e-10


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 100), st.floats(0.05, 0.95), st.floats(0.35, 1.9))
def test_match_reproduces_requested_moments(d, lam, var_scale):
    base = d * lam * (1 - lam)
    gamma, clamped = match_gamma(lam, (var_scale - 1.0) / (d - 1), d)
    mean, var = moments(transition_reference([d], d, lam, gamma)[0])
    assert mean == pytest.approx(d * lam, rel=1e-12)
    if not clamped:
        assert var == pytest.approx(var_scale * base, rel=1e-9)
