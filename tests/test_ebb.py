import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from gbjtest.ebb import (EBBParams, _log_factor_prefixes, ebb_log_pmf, ebb_log_pmf_vec,
                        ebb_match, gamma_floor, match_gamma)
from gbjtest.errors import DomainError


def random_feasible(rng, d):
    lam = rng.uniform(0.05, 0.95)
    floor = gamma_floor(lam, d)
    gamma = rng.uniform(0.7 * floor, 0.6)
    return EBBParams(d, lam, gamma)


class TestLogPmf:
    def test_binomial_case(self):
        p = math.exp(ebb_log_pmf(5, EBBParams(10, 0.5, 0.0)))
        assert p == pytest.approx(252 / 1024, rel=1e-14)

    def test_direct_products(self):
        # d=2, lam=0.3, gamma=0.1
        params = EBBParams(2, 0.3, 0.1)
        assert math.exp(ebb_log_pmf(0, params)) == pytest.approx(0.7 * 0.8 / 1.1, rel=1e-13)
        assert math.exp(ebb_log_pmf(2, params)) == pytest.approx(0.3 * 0.4 / 1.1, rel=1e-13)

    def test_normalization(self, rng):
        for d in (2, 10, 100, 500):
            for _ in range(50):
                params = random_feasible(rng, d)
                logs = ebb_log_pmf_vec(np.arange(d + 1), d, params.lam, params.gamma)
                assert abs(np.exp(logs).sum() - 1.0) < 1e-10

    def test_binomial_reduction_all_v(self, rng):
        for d in (2, 5, 17, 50, 100):
            lam = rng.uniform(0.05, 0.95)
            logs = ebb_log_pmf_vec(np.arange(d + 1), d, lam, 0.0)
            want = binom.pmf(np.arange(d + 1), d, lam)
            np.testing.assert_allclose(np.exp(logs), want, rtol=1e-12)

    def test_moment_identities(self, rng):
        for d in (5, 30, 200):
            for _ in range(20):
                params = random_feasible(rng, d)
                v = np.arange(d + 1)
                pmf = np.exp(ebb_log_pmf_vec(v, d, params.lam, params.gamma))
                mean = float(pmf @ v)
                var = float(pmf @ (v * v)) - mean * mean
                assert mean == pytest.approx(params.mean, abs=1e-8)
                assert var == pytest.approx(params.variance, abs=1e-8)

    def test_support_checked(self):
        params = EBBParams(4, 0.4, 0.05)
        with pytest.raises(DomainError):
            ebb_log_pmf(5, params)
        with pytest.raises(DomainError):
            ebb_log_pmf(-1, params)


class TestParams:
    def test_infeasible_identifies_factor(self):
        with pytest.raises(DomainError, match="1 - lambda"):
            EBBParams(10, 0.9, -0.05)
        with pytest.raises(DomainError, match="lambda \\+ gamma"):
            EBBParams(10, 0.1, -0.05)

    def test_lambda_domain(self):
        with pytest.raises(DomainError):
            EBBParams(5, 0.0, 0.0)
        with pytest.raises(DomainError):
            EBBParams(5, 1.0, 0.0)


class TestMatch:
    def test_binomial_variance_gives_zero_gamma(self):
        d, lam = 12, 0.35
        m = ebb_match(d * lam, d * lam * (1 - lam), d)
        assert m.params.gamma == pytest.approx(0.0, abs=1e-14)
        assert not m.clamped

    def test_hand_inverted_gamma(self):
        # d=10, lam=0.2, variance twice binomial: gamma/(1+gamma) = 1/9
        d, lam = 10, 0.2
        base = d * lam * (1 - lam)
        m = ebb_match(d * lam, 2 * base, d)
        assert m.params.gamma == pytest.approx(0.125, rel=1e-12)
        assert m.params.variance == pytest.approx(2 * base, rel=1e-10)

    def test_mean_always_exact(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 60))
            mean = rng.uniform(0.2, d - 0.2)
            lam = mean / d
            var = rng.uniform(0.3, 1.8) * d * lam * (1 - lam)
            m = ebb_match(mean, var, d)
            assert m.params.mean == pytest.approx(mean, rel=1e-12)

    def test_round_trip(self, rng):
        for d in (4, 25, 120):
            for _ in range(25):
                params = random_feasible(rng, d)
                m = ebb_match(params.mean, params.variance, d)
                assert m.params.lam == pytest.approx(params.lam, abs=1e-8)
                assert m.params.gamma == pytest.approx(params.gamma, abs=1e-8)

    def test_underdispersion_clamp_flagged(self):
        d, lam = 10, 0.3
        m = ebb_match(d * lam, 1e-4 * d * lam * (1 - lam), d)
        assert m.gamma_clamped
        assert m.params.gamma > gamma_floor(lam, d)

    def test_overdispersion_ceiling_clamp(self):
        d, lam = 6, 0.5
        m = ebb_match(d * lam, 2.0 * d * d * lam * (1 - lam), d)
        assert m.gamma_clamped

    def test_vectorized_matcher_equals_ebb_match(self):
        # binomial, over- and underdispersed, beyond the ceiling, below the floor
        d = 8
        lam = np.array([0.35, 0.2, 0.6, 0.5, 0.3, 0.9, 1e-9])
        base = d * lam * (1 - lam)
        var = base * np.array([1.0, 2.5, 0.6, 2.0 * d, 1e-4, 1e-6, 3.0])
        gamma, clamped = match_gamma(lam, (var - base) / ((d - 1) * base), d)
        assert clamped.tolist() == [False, False, False, True, True, True, False]
        for i in range(lam.size):
            m = ebb_match(d * lam[i], var[i], d)
            assert m.params.gamma == gamma[i]
            assert m.gamma_clamped == clamped[i]

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ebb_match(0.0, 1.0, 5)
        with pytest.raises(DomainError):
            ebb_match(5.0, 1.0, 5)
        with pytest.raises(DomainError):
            ebb_match(2.0, -1.0, 5)


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


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 200), st.floats(0.02, 0.98), st.floats(0.0, 1.0))
def test_pmf_normalizes_for_any_feasible_parameters(d, lam, gfrac):
    floor = gamma_floor(lam, d)
    gamma = floor * 0.8 + gfrac * (0.7 - floor * 0.8)
    logs = ebb_log_pmf_vec(np.arange(d + 1), d, lam, gamma)
    assert abs(np.exp(logs).sum() - 1.0) < 1e-10


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 100), st.floats(0.05, 0.95), st.floats(0.35, 1.9))
def test_match_reproduces_requested_moments(d, lam, var_scale):
    base = d * lam * (1 - lam)
    m = ebb_match(d * lam, var_scale * base, d)
    assert m.params.mean == pytest.approx(d * lam, rel=1e-12)
    if not m.clamped:
        assert m.params.variance == pytest.approx(var_scale * base, rel=1e-9)
