import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import chdtrc, ndtri
from scipy.stats import chi2

from gbjtest import crossing, gauss, omnibus, scores, setstats, simlab
from gbjtest.errors import (DegenerateInputError, DomainError, GBJError, ModelError,
                            NumericalError)
from gbjtest.exceedance import correlation_model
from tests.conftest import exchangeable, rand_corr


class TestSkatLite:
    def test_identity_is_chisquare(self):
        q = chi2.isf(0.05, 3)
        assert omnibus.skat_pvalue_from_q(q, np.eye(3)) == pytest.approx(0.05, abs=1e-10)
        assert omnibus.skat_pvalue_from_q(7.81473, np.eye(3)) == pytest.approx(0.05, abs=1e-3)

    def test_rank_one_collapses_to_single_chisquare(self):
        d = 4
        Z = setstats.ZVector(np.array([2.0, 1.5, 1.8, 2.2]))
        q = omnibus.skat_statistic(Z)
        got = omnibus.skat_lite(Z, np.ones((d, d)))
        want = 2 * gauss.norm_sf(math.sqrt(q / d))
        assert got == pytest.approx(want, abs=1e-3)

    def test_monte_carlo_agreement(self, rng):
        d = 10
        Sigma = rand_corr(d, rng)
        L = np.linalg.cholesky(Sigma)
        n = 1_000_000
        draws = rng.standard_normal((n, d)) @ L.T
        qs = np.einsum("ij,ij->i", draws, draws)
        for q0 in (np.quantile(qs, 0.95), np.quantile(qs, 0.99)):
            mc = float(np.mean(qs > q0))
            se = math.sqrt(mc * (1 - mc) / n)
            got = omnibus.skat_pvalue_from_q(float(q0), Sigma)
            assert abs(got - mc) < 3 * se + 2e-4

    def test_threshold_round_trip(self, rng):
        # the closed-form threshold inverts the p-value to rounding
        for Sigma in (rand_corr(6, rng), np.eye(1), exchangeable(10, 0.99)):
            for alpha in (0.5, 0.05, 0.01, 1e-6, 1e-12):
                q = omnibus.skat_threshold(alpha, Sigma)
                assert omnibus.skat_pvalue_from_q(q, Sigma) == pytest.approx(alpha, rel=1e-13, abs=0)

    def test_degenerate_rejected(self):
        Z = setstats.ZVector(np.array([1.0, 1.0]))
        with pytest.raises(DegenerateInputError):
            omnibus._liu_params(np.zeros(3))
        with pytest.raises(DomainError):
            omnibus.skat_lite(Z, np.eye(3))


class TestChi2Tail:
    @staticmethod
    def matched_x(q, Sigma):
        dof, mu_q, sigma_q = omnibus._liu_params(correlation_model(Sigma).eigvals)
        return (q - mu_q) / sigma_q * math.sqrt(2.0 * dof) + dof, dof

    def test_nonpositive_matched_x_is_one(self):
        Sigma = np.full((10, 10), 0.9)
        np.fill_diagonal(Sigma, 1.0)
        for q in (0.0, 0.01, 0.05):
            x, dof = self.matched_x(q, Sigma)
            assert x < 0.0 and math.isnan(chdtrc(dof, x))
            assert omnibus.skat_pvalue_from_q(q, Sigma) == 1.0 == chi2.sf(x, dof)

    def test_is_scipy_chi2_bit_for_bit(self):
        rng = np.random.default_rng(5)
        sigmas = [np.eye(14), np.eye(38), exchangeable(8, 0.4), rand_corr(12, rng)]
        for Sigma in sigmas:
            d = Sigma.shape[0]
            for q in (0.5, d * 0.7, float(d), d * 2.0, d * 6.0, d * 40.0):
                x, dof = self.matched_x(q, Sigma)
                assert omnibus.skat_pvalue_from_q(q, Sigma) == chi2.sf(x, dof)

    def test_quadratic_form_leaves_scipy_stats_unloaded(self):
        # a fresh interpreter: pytest itself has loaded scipy.stats
        import gbjtest
        src = os.path.dirname(os.path.dirname(os.path.abspath(gbjtest.__file__)))
        code = ("import sys; import numpy as np; import gbjtest; "
                "from gbjtest import omnibus; "
                "S = np.full((5, 5), 0.3); np.fill_diagonal(S, 1.0); "
                "z = gbjtest.ZVector(np.array([2.5, 1.0, 0.3, -1.2, 3.1])); "
                "omnibus.skat_lite(z, S); omnibus.skat_threshold(0.01, S); "
                "omnibus.omnibus_test(z, S, B=20, seed=1); "
                "print('scipy.stats' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=120)
        assert out.stdout.strip() == "False"


class TestBootstrapCorr:
    def test_deterministic_bit_for_bit(self):
        Sigma = np.eye(20)
        R1, d1 = omnibus.bootstrap_corr(Sigma, B=100, seed=7)
        R2, d2 = omnibus.bootstrap_corr(Sigma, B=100, seed=7)
        assert d1 == d2
        assert np.array_equal(R1, R2)

    def test_valid_correlation_output(self, rng):
        Sigma = exchangeable(12, 0.3)
        R, dropped = omnibus.bootstrap_corr(Sigma, B=60, seed=3)
        assert R.shape == (4, 4)
        np.testing.assert_allclose(np.diag(R), 1.0)
        assert np.max(np.abs(R)) <= 1.0 + 1e-12
        assert np.linalg.eigvalsh(R)[0] > -1e-10
        assert dropped == 0

    def test_degenerate_single_coordinate_all_ones(self):
        R, _ = omnibus.bootstrap_corr(np.eye(1), B=40, seed=1)
        np.testing.assert_allclose(R, np.ones((4, 4)), atol=1e-12)

    def test_partially_degenerate_columns_stay_symmetric(self):
        X = np.column_stack([
            np.linspace(-1.0, 1.0, 30),
            np.full(30, 0.7),
            np.linspace(1.0, -1.0, 30),
            np.full(30, -0.2),
        ])
        R = omnibus._correlate_columns(X)
        assert np.array_equal(R, R.T)
        assert R[1, 0] == 1.0 and R[3, 0] == 1.0
        assert R[2, 0] == pytest.approx(-1.0)
        np.testing.assert_allclose(np.diag(R), 1.0)

    def test_minimum_replicates(self):
        with pytest.raises(DomainError):
            omnibus.bootstrap_corr(np.eye(4), B=10, seed=0)

    @pytest.mark.parametrize("B, seed, message", [(10, 0, "B >= 20 replicates, got 10"),
                                                   (20, -1, "seed must be >= 0, got -1")])
    def test_replicates_and_seed_checked_in_both_modes(self, B, seed, message, rng):
        with pytest.raises(DomainError, match=message):
            omnibus.bootstrap_corr(np.eye(4), B=B, seed=seed)
        n, d = 60, 3
        G = scores.GenotypeMatrix(values=rng.integers(0, 3, size=(n, d)).astype(float),
                                  ids=("a", "b", "c"))
        X = np.ones((n, 1))
        fit = scores.fit_null(rng.standard_normal(n), X, "gaussian")
        with pytest.raises(DomainError, match=message):
            omnibus.bootstrap_corr_individual(fit, G, X, B=B, seed=seed)

    def test_individual_mode_runs_and_is_deterministic(self, rng):
        n, d = 250, 6
        g = (rng.uniform(size=(n, d)) < 0.3).astype(float) + (rng.uniform(size=(n, d)) < 0.3)
        G = scores.GenotypeMatrix(values=g, ids=tuple(f"s{j}" for j in range(d)))
        X = np.ones((n, 1))
        y = rng.standard_normal(n)
        fit = scores.fit_null(y, X, "gaussian")
        R1, d1 = omnibus.bootstrap_corr_individual(fit, G, X, B=40, seed=11)
        R2, d2 = omnibus.bootstrap_corr_individual(fit, G, X, B=40, seed=11)
        assert np.array_equal(R1, R2)
        assert np.linalg.eigvalsh(R1)[0] > -1e-10
        # the four tests on the same data correlate positively
        iu = np.triu_indices(4, 1)
        assert np.mean(R1[iu]) > 0.2

    def test_individual_mode_binomial(self, rng):
        n, d = 220, 4
        g = (rng.uniform(size=(n, d)) < 0.3).astype(float) + (rng.uniform(size=(n, d)) < 0.3)
        G = scores.GenotypeMatrix(values=g, ids=tuple("abcd"))
        X = np.ones((n, 1))
        y = (rng.uniform(size=n) < 0.4).astype(float)
        fit = scores.fit_null(y, X, "binomial")
        R, dropped = omnibus.bootstrap_corr_individual(fit, G, X, B=30, seed=5)
        assert R.shape == (4, 4) and dropped < 15

    @staticmethod
    def covariate_span_design(seed):
        """Five genotype columns, the third equal to the second covariate."""
        rng = np.random.default_rng(seed)
        n = 200
        g = rng.binomial(2, 0.3, size=(n, 5)).astype(float)
        X = np.column_stack([np.ones(n), rng.binomial(2, 0.4, size=n).astype(float)])
        g[:, 2] = X[:, 1]
        fit = scores.fit_null(X @ [0.2, 0.1] + rng.standard_normal(n), X, "gaussian")
        return g, X, fit

    @pytest.mark.parametrize("seed", [3, 6])
    def test_individual_mode_scores_the_columns_score_stats_keeps(self, seed):
        g, X, fit = self.covariate_span_design(seed)
        G = scores.GenotypeMatrix(values=g, ids=tuple("abcde"))
        assert scores.score_stats(G, fit, X)[3] == ("c",)
        reduced = scores.GenotypeMatrix(values=np.delete(g, 2, axis=1), ids=tuple("abde"))
        R, dropped = omnibus.bootstrap_corr_individual(fit, G, X, B=30, seed=seed)
        R_ref, dropped_ref = omnibus.bootstrap_corr_individual(fit, reduced, X, B=30,
                                                               seed=seed)
        assert dropped == dropped_ref
        np.testing.assert_allclose(R, R_ref, rtol=0, atol=1e-12)

    def test_individual_mode_every_column_in_span(self):
        _, X, fit = self.covariate_span_design(3)
        G = scores.GenotypeMatrix(values=np.column_stack([X[:, 1], 2.0 * X[:, 1]]),
                                  ids=("a", "b"))
        with pytest.raises(DegenerateInputError, match="covariate span"):
            omnibus.bootstrap_corr_individual(fit, G, X, B=20, seed=0)

    def test_individual_mode_refuses_unconverged_fit(self):
        rng = np.random.default_rng(1)
        n = 100
        x = rng.standard_normal(n)
        X = np.column_stack([np.ones(n), x])
        fit = scores.fit_null((x > 0).astype(float), X, "binomial")   # separated
        assert not fit.converged
        G = scores.GenotypeMatrix(values=rng.binomial(2, 0.3, size=(n, 4)).astype(float),
                                  ids=tuple("abcd"))
        with pytest.raises(ModelError, match="did not converge"):
            omnibus.bootstrap_corr_individual(fit, G, X, B=20, seed=1)

    def test_individual_mode_fit_size_mismatch(self):
        g, X, fit = self.covariate_span_design(3)
        G = scores.GenotypeMatrix(values=g[:-1], ids=tuple("abcde"))
        with pytest.raises(DomainError, match="dimension mismatch"):
            omnibus.bootstrap_corr_individual(fit, G, X[:-1], B=20, seed=0)


def one_set_at_a_time(Zs, model):
    """The component p-values of each set by its own ``crossing.pvalue``
    calls, one set after another: the reference for the batched path."""
    out = []
    for Z in Zs:
        try:
            pv = {m: crossing.pvalue(m, Z, model).pvalue
                  for m in (setstats.GBJ, setstats.GHC, setstats.MINP)}
            pv["SKAT"] = omnibus.skat_lite(Z, model)
        except GBJError as err:
            pv = err
        out.append(pv)
    return out


class TestBatchedBootstrap:
    """All replicates' bounds are inverted together; the results must be the
    ones a replicate-by-replicate loop gives."""

    def assert_matches_loop(self, monkeypatch, run):
        R, dropped = run()
        with monkeypatch.context() as m:
            m.setattr(omnibus, "component_pvalues", one_set_at_a_time)
            R_ref, dropped_ref = run()
        assert dropped == dropped_ref
        np.testing.assert_allclose(R, R_ref, rtol=0, atol=1e-12)
        return dropped

    @pytest.mark.parametrize("d", [5, 20, 60])
    def test_summary_mode_matches_loop(self, monkeypatch, rng, d):
        Sigma = rand_corr(d, rng, factor=1)
        model = correlation_model(Sigma)
        assert self.assert_matches_loop(
            monkeypatch, lambda: omnibus.bootstrap_corr(model, B=24, seed=4)) == 0

    def test_individual_mode_matches_loop(self, monkeypatch, rng):
        n, d = 250, 8
        g = (rng.uniform(size=(n, d)) < 0.3).astype(float) + (rng.uniform(size=(n, d)) < 0.3)
        G = scores.GenotypeMatrix(values=g, ids=tuple(f"s{j}" for j in range(d)))
        X = np.ones((n, 1))
        fit = scores.fit_null(rng.standard_normal(n), X, "gaussian")
        self.assert_matches_loop(
            monkeypatch, lambda: omnibus.bootstrap_corr_individual(fit, G, X, B=30, seed=2))

    def test_failing_replicate_dropped_alone(self, monkeypatch):
        d, seed, B = 12, 9, 24
        model = correlation_model(exchangeable(d, 0.3))
        L = omnibus._safe_cholesky(model.matrix)
        poisoned = L @ np.random.default_rng([seed, 5]).standard_normal(d)
        compute = setstats.compute_statistic

        def failing(method, Z, *args, **kwargs):
            if method == setstats.GHC and np.array_equal(Z.z, poisoned):
                raise NumericalError("injected failure")
            return compute(method, Z, *args, **kwargs)

        monkeypatch.setattr(setstats, "compute_statistic", failing)
        run = lambda: omnibus.bootstrap_corr(model, B=B, seed=seed)  # noqa: E731
        assert self.assert_matches_loop(monkeypatch, run) == 1
        # the other replicates give the correlation of a run without it
        Zs = [setstats.ZVector(L @ np.random.default_rng([seed, r]).standard_normal(d))
              for r in range(B) if r != 5]
        cols = [[pv[c] for c in omnibus.OMNI_COMPONENTS] for pv in one_set_at_a_time(Zs, model)]
        want = omnibus.repair_correlation(
            omnibus._correlate_columns(omnibus._transformed(np.array(cols))))
        np.testing.assert_allclose(run()[0], want, rtol=0, atol=1e-12)

    def test_list_matches_single_sets(self, rng):
        d = 10
        model = correlation_model(rand_corr(d, rng, factor=1))
        Zs = [setstats.ZVector(rng.standard_normal(d) * 1.5) for _ in range(3)]
        Zs.insert(1, setstats.ZVector(np.ones(d + 1)))     # fails: wrong dimension
        got = omnibus.component_pvalues(Zs, model)
        assert isinstance(got[1], DomainError)
        for Z, pv in zip(Zs[:1] + Zs[2:], got[:1] + got[2:]):
            want = omnibus.component_pvalues(Z, model)
            assert set(pv) == set(omnibus.OMNI_COMPONENTS)
            for c in omnibus.OMNI_COMPONENTS:
                assert pv[c] == pytest.approx(want[c], rel=1e-12, abs=0), c
        one = [setstats.ZVector(np.array([z])) for z in (1.2, -2.5)]
        for Z, pv in zip(one, omnibus.component_pvalues(one, np.eye(1))):
            assert pv == dict.fromkeys(omnibus.OMNI_COMPONENTS, 2.0 * gauss.norm_sf(abs(Z.z[0])))

    def test_single_set_raises_its_first_failure(self, monkeypatch):
        Z = setstats.ZVector(np.array([2.5, -0.3, 1.9, 0.4, -2.2]))

        def failing(*args, **kwargs):
            raise NumericalError("injected failure")

        monkeypatch.setattr(crossing, "crossing_pvalue", failing)
        with pytest.raises(NumericalError, match="injected"):
            omnibus.component_pvalues(Z, np.eye(5))

    def test_replicates_share_objective_calls(self, monkeypatch):
        d, B = 100, 100
        sizes = []
        objective = setstats.objective_values

        def record(method, t, *args, **kwargs):
            sizes.append(np.size(t))
            return objective(method, t, *args, **kwargs)

        monkeypatch.setattr(setstats, "objective_values", record)
        omnibus.bootstrap_corr(exchangeable(d, 0.3), B=B, seed=1)
        # one replicate has d // 2 entries
        assert max(sizes) > d // 2


class TestOmniPvalue:
    def test_independence_closed_form(self):
        pv = {"GBJ": 0.05, "GHC": 0.4, "SKAT": 0.6, "MinP": 0.2}
        res = omnibus.omni_pvalue(pv, np.eye(4))
        assert res.omni_stat == 0.05
        assert res.p_omni == pytest.approx(1 - 0.95 ** 4, abs=1e-5)

    def test_perfect_dependence_closed_form(self):
        pv = {"GBJ": 0.03, "GHC": 0.2, "SKAT": 0.4, "MinP": 0.09}
        res = omnibus.omni_pvalue(pv, np.ones((4, 4)))
        assert res.p_omni == pytest.approx(0.03, abs=1e-5)

    def test_monotone_in_minimum(self, rng):
        R = omnibus.repair_correlation(0.5 * np.ones((4, 4)) + 0.5 * np.eye(4))
        last = 0.0
        for omni in (0.001, 0.01, 0.05, 0.2, 0.5):
            pv = {c: omni for c in omnibus.OMNI_COMPONENTS}
            p = omnibus.omni_pvalue(pv, R).p_omni
            assert p >= last
            last = p

    def test_envelope(self, rng):
        for _ in range(15):
            R = rand_corr(4, rng)
            # inter-test correlations are positive in practice
            R = np.abs(R)
            np.fill_diagonal(R, 1.0)
            R = omnibus.repair_correlation(R)
            omni = float(rng.uniform(0.001, 0.4))
            # the other components are larger p-values, at most 1
            others = [min(1.0, omni * f) for f in (2, 3, 1.5)]
            pv = dict(zip(omnibus.OMNI_COMPONENTS, [omni, *others]))
            p = omnibus.omni_pvalue(pv, R).p_omni
            assert omni - 1e-6 <= p <= 1 - (1 - omni) ** 4 + 1e-6

    def test_pairwise_half_against_monte_carlo(self, rng):
        R = 0.5 * np.ones((4, 4)) + 0.5 * np.eye(4)
        omni = 0.01
        res = omnibus.omni_pvalue({c: omni for c in omnibus.OMNI_COMPONENTS}, R)
        L = np.linalg.cholesky(R)
        n = 1_000_000
        draws = rng.standard_normal((n, 4)) @ L.T
        thresh = ndtri(1 - omni)
        mc = float(np.mean(np.any(draws > thresh, axis=1)))
        se = math.sqrt(mc * (1 - mc) / n)
        assert abs(res.p_omni - mc) < 3 * se + 1e-5

    def test_missing_component_rejected(self):
        with pytest.raises(DomainError):
            omnibus.omni_pvalue({"GBJ": 0.1}, np.eye(4))

    @pytest.mark.parametrize("bad", [1.5, -0.1, math.nan])
    def test_component_outside_unit_interval_rejected(self, bad):
        pv = {"GBJ": bad, "GHC": 0.4, "SKAT": 0.6, "MinP": 0.2}
        with pytest.raises(DomainError, match=f"component p-value GBJ={bad!r} is not in"):
            omnibus.omni_pvalue(pv, np.eye(4))

    def test_threshold_validates_r_hat_once(self, monkeypatch):
        R = 0.5 * np.ones((4, 4)) + 0.5 * np.eye(4)
        c = omnibus.omni_threshold(0.01, R)
        calls = []
        check = gauss.check_correlation

        def counted(M):
            calls.append(np.shape(M))
            return check(M)
        monkeypatch.setattr(gauss, "check_correlation", counted)
        assert omnibus.omni_threshold(0.01, R) == c
        assert calls == [(4, 4)]
        res = omnibus.omni_pvalue({comp: c for comp in omnibus.OMNI_COMPONENTS}, R)
        assert res.p_omni == pytest.approx(0.01, rel=1e-8)

    def test_threshold_integrates_each_cutoff_once(self, monkeypatch):
        R = 0.5 * np.ones((4, 4)) + 0.5 * np.eye(4)
        zs = []
        cdf = gauss.mvn_cdf_small

        def counted(z, *args, **kwargs):
            zs.append(z)
            return cdf(z, *args, **kwargs)

        monkeypatch.setattr(gauss, "mvn_cdf_small", counted)
        # the cutoff of the search on [alpha/5, alpha] that stops at
        # |log(p/alpha)| <= 1e-10
        assert omnibus.omni_threshold(0.01, R) == 0.0027893481516004315
        assert len(zs) == len(set(zs))
        assert len(zs) <= 5


def _one_negative_entry():
    R = exchangeable(4, 0.4)
    R[0, 3] = R[3, 0] = -0.2
    return R


def _bootstrap_r_hat(structure, seed):
    return omnibus.bootstrap_corr(simlab.block_sigma(structure), B=20, seed=seed)[0]


# cutoffs at alpha = 0.01 of the search that bracketed from alpha/64 and
# stopped at a 1e-14 bracket in c; the search from alpha/5 that stops at
# |log(p/alpha)| <= 1e-10 moved them by at most 4.1e-12 relative
THRESHOLD_CASES = {
    "exchangeable 0.5": (lambda: exchangeable(4, 0.5), 0.002789348151590082),
    "exchangeable 0.9": (lambda: exchangeable(4, 0.9), 0.00474106365022432),
    "exchangeable -0.3": (lambda: exchangeable(4, -0.3), 0.0024947813883464368),
    "identity": (lambda: np.eye(4), 0.0025094300663192023),
    "all ones": (lambda: np.ones((4, 4)), 0.009999999999999992),
    "one negative entry": (_one_negative_entry, 0.002643944596952742),
    "bootstrap d8": (lambda: _bootstrap_r_hat(simlab.BlockStructure(d=8, k=0, rho3=0.3), 0),
                     0.003950859554444611),
    "bootstrap d12": (lambda: _bootstrap_r_hat(
        simlab.BlockStructure(d=12, k=3, rho1=0.4, rho2=0.1, rho3=0.5), 1), 0.004280232719421604),
}


class TestOmniThreshold:
    @pytest.mark.parametrize("name", list(THRESHOLD_CASES))
    def test_cutoff_in_five_distinct_integrals(self, name, monkeypatch):
        make, want = THRESHOLD_CASES[name]
        R = make()
        zs = []
        cdf = gauss.mvn_cdf_small

        def counted(z, *args, **kwargs):
            zs.append(z)
            return cdf(z, *args, **kwargs)

        monkeypatch.setattr(gauss, "mvn_cdf_small", counted)
        c = omnibus.omni_threshold(0.01, R)
        monkeypatch.undo()
        assert c == pytest.approx(want, rel=1e-10, abs=0.0)
        assert len(zs) <= 5
        assert len(zs) == len(set(zs))
        res = omnibus.omni_pvalue({comp: c for comp in omnibus.OMNI_COMPONENTS}, R)
        assert res.p_omni == pytest.approx(0.01, rel=1e-8, abs=0.0)

    def test_identity_closed_form(self):
        # independent components: p(c) = 1 - (1 - c)^4, which the lattice
        # takes as a product of constants
        c = omnibus.omni_threshold(0.01, np.eye(4))
        assert c == pytest.approx(1.0 - 0.99 ** 0.25, rel=1e-12, abs=0.0)

    def test_perfect_dependence_is_alpha(self):
        # one component in four copies: p(c) = c
        assert omnibus.omni_threshold(0.01, np.ones((4, 4))) == pytest.approx(0.01, rel=1e-12,
                                                                               abs=0.0)


class TestOmnibusPipeline:
    def test_component_pvalues_d1_collapse(self):
        Z = setstats.ZVector(np.array([2.3]))
        pv = omnibus.component_pvalues(Z, np.eye(1))
        want = 2 * gauss.norm_sf(2.3)
        for c in omnibus.OMNI_COMPONENTS:
            assert pv[c] == pytest.approx(want, rel=1e-12)

    def test_size_mismatch_rejected_before_d1_collapse(self):
        Z = setstats.ZVector(np.array([1.3]))
        with pytest.raises(DomainError, match="dimension mismatch"):
            omnibus.component_pvalues(Z, np.eye(3))
        with pytest.raises(DomainError, match="dimension mismatch"):
            omnibus.omnibus_test(Z, np.eye(3), B=20)
        got = omnibus.component_pvalues([Z, setstats.ZVector(np.array([1.3, 0.2, -2.0]))],
                                        np.eye(3))
        assert isinstance(got[0], DomainError)
        assert set(got[1]) == set(omnibus.OMNI_COMPONENTS)

    @pytest.mark.parametrize("Sigma, z", [
        (np.ones((2, 2)), [2.5, 2.5]),
        (np.array([[1.0, -1.0], [-1.0, 1.0]]), [2.5, -2.5]),
        (np.ones((3, 3)), [2.0, 2.0, 2.0]),
    ], ids=["d2_rho_1", "d2_rho_minus_1", "d3_all_ones"])
    def test_all_snps_in_perfect_ld(self, Sigma, z):
        # every component is one function of |z|, so the bootstrap puts two of
        # them within about 1e-11 of perfect correlation; the copula merges
        # them rather than refusing R_hat as singular
        res = omnibus.omnibus_test(setstats.ZVector(np.array(z)), Sigma)
        assert math.isfinite(res.p_omni)
        assert res.omni_stat <= res.p_omni <= 1.0 - (1.0 - res.omni_stat) ** 4
        assert res.diagnostics == ()

    def test_full_pipeline(self, rng):
        d = 10
        Sigma = exchangeable(d, 0.2)
        z = rng.multivariate_normal(np.zeros(d), Sigma) + 0.9
        res = omnibus.omnibus_test(setstats.ZVector(z), Sigma, B=40, seed=2)
        assert res.omni_stat == min(res.component_pvalues.values())
        assert 0.0 <= res.p_omni <= 1.0
        assert res.bootstrap_reps == 40

    def test_null_calibration_identity_d20(self, rng):
        # empirical size of the copula-combined test at alpha = 0.05;
        # conservative behavior is expected, hence the slack lower bound
        d, alpha, reps = 20, 0.05, 10_000
        Sigma = np.eye(d)
        R_hat, _ = omnibus.bootstrap_corr(Sigma, B=100, seed=31)
        c_star = omnibus.omni_threshold(alpha, R_hat)
        bounds = {m: crossing.rejection_region(m, c_star, d, Sigma).b
                  for m in ("GBJ", "GHC", "MinP")}
        q_cut = omnibus.skat_threshold(c_star, Sigma)
        draws = rng.standard_normal((reps, d))
        sortz = np.sort(np.abs(draws), axis=1)
        rej = np.zeros(reps, dtype=bool)
        for b in bounds.values():
            rej |= np.any(sortz > b[None, :], axis=1)
        rej |= np.einsum("ij,ij->i", draws, draws) > q_cut
        size = rej.mean()
        assert 0.03 <= size <= 0.06
