import warnings

import numpy as np
import pytest

from gbjtest import scores
from gbjtest.errors import DomainError, ModelError
from gbjtest.scores import GenotypeMatrix


def toy_genotypes(rng, n, d, maf=0.3):
    g = (rng.uniform(size=(n, d)) < maf).astype(float) + (rng.uniform(size=(n, d)) < maf)
    return GenotypeMatrix(values=g, ids=tuple(f"s{j}" for j in range(d)))


class TestFitNull:
    def test_gaussian_intercept_only_is_mean(self, rng):
        y = rng.standard_normal(30) + 2.0
        fit = scores.fit_null(y, np.ones((30, 1)), "gaussian")
        np.testing.assert_allclose(fit.mu0, np.full(30, y.mean()), rtol=1e-12)
        assert fit.dispersion == pytest.approx(y.var(ddof=1), rel=1e-12)

    def test_binomial_intercept_only_is_proportion(self, rng):
        y = (rng.uniform(size=80) < 0.35).astype(float)
        fit = scores.fit_null(y, np.ones((80, 1)), "binomial")
        np.testing.assert_allclose(fit.mu0, np.full(80, y.mean()), atol=1e-9)
        assert fit.converged

    def test_small_gaussian_matches_normal_equations(self):
        X = np.array([[1, 0.5], [1, -1.0], [1, 2.0], [1, 0.0], [1, 1.5], [1, -0.5]])
        y = np.array([1.0, -0.2, 2.5, 0.3, 2.0, 0.1])
        fit = scores.fit_null(y, X, "gaussian")
        want = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(fit.alpha_hat, want, atol=1e-10)

    def test_binomial_matches_logistic_gradient_zero(self, rng):
        n = 150
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        eta = 0.3 - 0.8 * X[:, 1]
        y = (rng.uniform(size=n) < 1 / (1 + np.exp(-eta))).astype(float)
        fit = scores.fit_null(y, X, "binomial")
        assert fit.converged
        grad = X.T @ (y - fit.mu0)
        assert np.linalg.norm(grad) < 1e-7

    def test_rank_deficiency_rejected(self, rng):
        X = np.ones((20, 2))
        with pytest.raises(ModelError):
            scores.fit_null(rng.standard_normal(20), X, "gaussian")

    def test_perfect_separation_flagged_not_crashed(self):
        n = 40
        x = np.linspace(-2, 2, n)
        X = np.column_stack([np.ones(n), x])
        y = (x > 0).astype(float)
        fit = scores.fit_null(y, X, "binomial")
        assert not fit.converged

    def test_separated_fit_raises_no_overflow_warning(self):
        # y = (x > 0) at n = 100 drives |eta| past where exp(-eta) overflows
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100)
        X = np.column_stack([np.ones(100), x])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = scores.fit_null((x > 0).astype(float), X, "binomial")
        assert not fit.converged

    def test_quasi_separation_flagged(self):
        # y = 0 for all ten subjects with x = 1, so the slope's MLE is -inf;
        # IRLS stopped at -21.2 with the gradient (10 x 6e-10) under tolerance
        # and reported converged=True
        n = 40
        x = (np.arange(n) < 10).astype(float)
        y = np.where(x == 1.0, 0.0, np.arange(n) % 2)
        fit = scores.fit_null(y, np.column_stack([np.ones(n), x]), "binomial")
        assert fit.alpha_hat[1] < -20.0
        assert not fit.converged

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_constant_binomial_outcome_refused(self, value):
        # the intercept-only fit of an all-0 outcome used to stop at alpha = -22
        # with a gradient under tolerance and report converged=True
        with pytest.raises(ModelError, match=f"outcome is constant .every value is {value:g}"):
            scores.fit_null(np.full(40, value), np.ones((40, 1)), "binomial")

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.parametrize("where", ["y", "X"])
    def test_non_finite_input_refused(self, family, where, rng):
        n = 30
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = (rng.uniform(size=n) < 0.5).astype(float)
        (y if where == "y" else X)[3, ...] = np.nan
        with pytest.raises(DomainError, match="must be finite"):
            scores.fit_null(y, X, family)

    def test_unknown_family(self, rng):
        with pytest.raises(DomainError):
            scores.fit_null(rng.standard_normal(10), np.ones((10, 1)), "poisson")


class TestScoreStats:
    def test_hand_computed_gaussian_intercept_only(self):
        g = np.array([[0, 1], [1, 0], [2, 1], [0, 2], [1, 1], [2, 0], [1, 2], [0, 0]],
                     dtype=float)
        y = np.array([0.2, -0.1, 1.3, 0.4, 0.9, -0.5, 1.8, 0.3])
        G = GenotypeMatrix(values=g, ids=("a", "b"))
        X = np.ones((8, 1))
        fit = scores.fit_null(y, X, "gaussian")
        Z, Sigma, kept, dropped = scores.score_stats(G, fit, X)
        sig2 = ((y - y.mean()) ** 2).sum() / 7
        for j in range(2):
            gc = g[:, j] - g[:, j].mean()
            want = g[:, j] @ (y - y.mean()) / np.sqrt(sig2 * (gc @ gc))
            assert Z.z[j] == pytest.approx(want, abs=1e-10)

    def test_duplicate_columns_perfectly_correlated(self, rng):
        g = toy_genotypes(rng, 100, 1).values
        G = GenotypeMatrix(values=np.column_stack([g, g]), ids=("a", "b"))
        y = rng.standard_normal(100)
        X = np.ones((100, 1))
        fit = scores.fit_null(y, X, "gaussian")
        Z, Sigma, *_ = scores.score_stats(G, fit, X)
        assert Sigma[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert Z.z[0] == pytest.approx(Z.z[1], rel=1e-12)

    def test_column_scaling_invariance(self, rng):
        G0 = toy_genotypes(rng, 120, 3)
        y = rng.standard_normal(120)
        X = np.ones((120, 1))
        fit = scores.fit_null(y, X, "gaussian")
        Z0, S0, *_ = scores.score_stats(G0, fit, X)
        scaled = G0.values.copy()
        scaled[:, 1] *= 3.7
        Z1, S1, *_ = scores.score_stats(GenotypeMatrix(scaled, G0.ids), fit, X)
        np.testing.assert_allclose(Z1.z, Z0.z, rtol=1e-12)
        np.testing.assert_allclose(S1, S0, rtol=1e-10, atol=1e-12)

    def test_covariate_affine_recoding_invariance(self, rng):
        n = 150
        G = toy_genotypes(rng, n, 4)
        cov = rng.standard_normal((n, 2))
        y = rng.standard_normal(n) + 0.4 * cov[:, 0]
        X1 = np.column_stack([np.ones(n), cov])
        X2 = np.column_stack([np.ones(n), 3.0 * cov[:, 0] - 1.0, cov[:, 1] + 2.0])
        Z1, S1, *_ = scores.score_stats(G, scores.fit_null(y, X1, "gaussian"), X1)
        Z2, S2, *_ = scores.score_stats(G, scores.fit_null(y, X2, "gaussian"), X2)
        np.testing.assert_allclose(Z1.z, Z2.z, rtol=1e-9)
        np.testing.assert_allclose(S1, S2, atol=1e-10)

    def test_column_in_covariate_span_dropped(self, rng):
        n = 90
        cov = rng.standard_normal(n)
        G = GenotypeMatrix(values=np.column_stack([cov, toy_genotypes(rng, n, 1).values]),
                           ids=("span", "ok"))
        X = np.column_stack([np.ones(n), cov])
        y = rng.standard_normal(n)
        fit = scores.fit_null(y, X, "gaussian")
        Z, Sigma, kept, dropped = scores.score_stats(G, fit, X)
        assert dropped == ("span",)
        assert kept == ("ok",)
        assert Z.d == 1

    def test_drop_and_readd_leaves_others_identical(self, rng):
        n = 140
        G = toy_genotypes(rng, n, 5)
        y = rng.standard_normal(n)
        X = np.ones((n, 1))
        fit = scores.fit_null(y, X, "gaussian")
        Z_full, *_ = scores.score_stats(G, fit, X)
        G_sub = GenotypeMatrix(values=G.values[:, [0, 1, 3, 4]],
                               ids=tuple(np.array(G.ids)[[0, 1, 3, 4]]))
        Z_sub, *_ = scores.score_stats(G_sub, fit, X)
        assert Z_sub.z[0] == Z_full.z[0]
        assert Z_sub.z[3] == Z_full.z[4]

    def test_null_simulation_calibration(self, rng):
        n, d, reps = 400, 3, 2500
        G = toy_genotypes(rng, n, d)
        X = np.ones((n, 1))
        zs = np.empty((reps, d))
        for r in range(reps):
            y = rng.standard_normal(n)
            fit = scores.fit_null(y, X, "gaussian")
            Z, *_ = scores.score_stats(G, fit, X)
            zs[r] = Z.z
        assert np.all(np.abs(zs.mean(axis=0)) < 4 / np.sqrt(reps))
        assert np.all((zs.var(axis=0) > 0.9) & (zs.var(axis=0) < 1.1))

    def test_psd_correlation(self, rng):
        n = 200
        G = toy_genotypes(rng, n, 8)
        y = rng.standard_normal(n)
        X = np.ones((n, 1))
        _, Sigma, *_ = scores.score_stats(G, scores.fit_null(y, X, "gaussian"), X)
        assert np.linalg.eigvalsh(Sigma)[0] > -1e-10


class TestRefPanelCov:
    def test_m0_is_sample_correlation(self, rng):
        panel = toy_genotypes(rng, 300, 6)
        got = scores.ref_panel_cov(panel, m=0)
        want = np.corrcoef(panel.values, rowvar=False)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_orthogonal_columns_uncorrelated(self):
        a = np.array([1.0, 1.0, -1.0, -1.0, 0.5, -0.5])
        b = np.array([1.0, -1.0, 1.0, -1.0, 0.0, 0.0])
        panel = GenotypeMatrix(values=np.column_stack([a + 1, b + 1]), ids=("a", "b"))
        got = scores.ref_panel_cov(panel, m=0)
        assert got[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_pc_adjustment_matches_straight_line(self, rng):
        n, d, m = 150, 5, 2
        # planted two-factor structure
        F = rng.standard_normal((n, 2))
        load = rng.standard_normal((2, d)) * 1.5
        vals = F @ load + rng.standard_normal((n, d))
        panel = GenotypeMatrix(values=vals, ids=tuple(f"s{j}" for j in range(d)))
        got = scores.ref_panel_cov(panel, m=m)
        # straight-line: center, regress out top PCs, correlate residuals
        C = vals - vals.mean(axis=0)
        U, s, Vt = np.linalg.svd(C, full_matrices=False)
        pcs = U[:, :m]
        R = C - pcs @ (pcs.T @ C)
        want = np.corrcoef(R, rowvar=False)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_m_bounds(self, rng):
        panel = toy_genotypes(rng, 10, 3)
        with pytest.raises(DomainError):
            scores.ref_panel_cov(panel, m=9)
        with pytest.raises(DomainError):
            scores.ref_panel_cov(panel, m=-1)


class TestReferencePanelApproximation:
    def test_gaussian_intercept_only_agreement(self, rng):
        # Sigma from scoring equals Sigma from the same data used as its own
        # reference panel (m = 0, gaussian, intercept-only)
        n = 2000
        G = toy_genotypes(rng, n, 6)
        # plant LD by mixing columns
        vals = G.values.copy()
        vals[:, 1] = 0.6 * vals[:, 0] + 0.4 * vals[:, 1]
        G = GenotypeMatrix(values=vals, ids=G.ids)
        y = rng.standard_normal(n)
        X = np.ones((n, 1))
        _, S_score, *_ = scores.score_stats(G, scores.fit_null(y, X, "gaussian"), X)
        S_panel = scores.ref_panel_cov(G, m=0)
        assert np.max(np.abs(S_score - S_panel)) < 0.02

    def test_binomial_agreement_looser(self, rng):
        n = 2000
        G = toy_genotypes(rng, n, 5)
        y = (rng.uniform(size=n) < 0.45).astype(float)
        X = np.ones((n, 1))
        _, S_score, *_ = scores.score_stats(G, scores.fit_null(y, X, "binomial"), X)
        S_panel = scores.ref_panel_cov(G, m=0)
        assert np.max(np.abs(S_score - S_panel)) < 0.05


class TestGenotypeMatrix:
    def test_shape_checks(self):
        with pytest.raises(DomainError):
            GenotypeMatrix(values=np.zeros((4, 2)), ids=("a",))
        with pytest.raises(DomainError):
            GenotypeMatrix(values=np.array([[0.0, np.nan]]), ids=("a", "b"))
