import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import binom

from gbjtest import crossing, ebb, exceedance, gauss, setstats
from gbjtest.crossing import BoundaryVector
from gbjtest.errors import DomainError, GBJError, NumericalError, SizeError
from tests.conftest import (LONGDOUBLE_ORACLE, exchangeable, oracle_loop, oracle_step, rand_corr,
                            rel_error, relevant, table_step)


def independent_ladder(bounds_vec):
    """Reference recursion for iid coordinates: exact, binomial conditionals.

    Returns the crossing probability for monotone bounds (inf allowed)."""
    b = np.asarray(bounds_vec, dtype=float)
    d = b.size
    stages = [(b[i], d - (i + 1)) for i in range(d) if np.isfinite(b[i])]
    merged = []
    for t, cap in stages:
        if merged and t <= merged[-1][0] + 1e-13:
            merged[-1] = (merged[-1][0], min(merged[-1][1], cap))
        else:
            merged.append((t, cap))
    q = {d: 1.0}
    t_prev = 0.0
    crossed = 0.0
    for t, cap in merged:
        lam = gauss.norm_sf(t) / gauss.norm_sf(t_prev)
        q_new = {}
        for m, pm in q.items():
            for a in range(m + 1):
                q_new[a] = q_new.get(a, 0.0) + pm * binom.pmf(a, m, lam)
        crossed += sum(p for a, p in q_new.items() if a > cap)
        q = {a: p for a, p in q_new.items() if a <= cap}
        t_prev = t
    return crossed


def record_series(monkeypatch):
    """Routes gauss.bivar_abs_tail_many through a recorder; returns the list
    that receives (number of thresholds, correlations) for each call."""
    calls = []
    series = gauss.bivar_abs_tail_many

    def record(t, rhos, *args, **kwargs):
        calls.append((np.size(t), np.array(rhos)))
        return series(t, rhos, *args, **kwargs)

    monkeypatch.setattr(gauss, "bivar_abs_tail_many", record)
    return calls


class TestInvertBounds:
    def test_minp_single_binding_bound(self):
        prof = exceedance.zero_profile(5)
        bv = crossing.invert_bounds("MinP", 2.575829, 5, prof)
        assert bv.b[-1] == 2.575829
        assert np.all(np.isinf(bv.b[:-1]))
        assert np.flatnonzero(np.isfinite(bv.b)).tolist() == [4]

    def test_round_trip_touches_observed_order_stat(self, rng):
        d = 12
        Sigma = exchangeable(d, 0.3)
        prof = exceedance.corr_powers(Sigma)
        for _ in range(10):
            z = rng.multivariate_normal(np.zeros(d), Sigma) * 1.6
            Z = setstats.ZVector(z)
            out = setstats.compute_statistic("GBJ", Z, Sigma)
            if out.statistic <= 0.0:
                continue
            bv = crossing.invert_bounds("GBJ", out.statistic, d, prof)
            j = out.achieving_index
            assert abs(Z.abs_order[d - j] - bv.b[d - j]) < 1e-6

    def test_zero_statistic_collapses_to_indicator_infimum(self):
        d = 10
        prof = exceedance.zero_profile(d)
        bv = crossing.invert_bounds("GBJ", 0.0, d, prof)
        for j in range(1, d // 2 + 1):
            want = ndtri(1.0 - j / (2.0 * d))
            assert bv.b[d - j] == pytest.approx(want, abs=1e-9)

    def test_bounds_monotone(self, rng):
        d = 20
        Sigma = rand_corr(d, rng)
        prof = exceedance.corr_powers(Sigma)
        for method in ("GBJ", "BJ", "HC", "GHC"):
            bv = crossing.invert_bounds(method, 2.0, d, prof)
            fin = bv.b[np.isfinite(bv.b)]
            assert fin.size == d // 2
            assert np.all(np.diff(fin) >= 0)

    def test_roots_straddle_g_within_1e9_relative(self, rng):
        for d, Sigma in ((6, np.eye(6)), (20, exchangeable(20, 0.3)),
                         (50, rand_corr(50, rng))):
            prof = exceedance.corr_powers(Sigma)
            js = np.arange(1, d // 2 + 1)
            for method in ("GBJ", "BJ", "HC", "GHC"):
                own = prof if method in ("GBJ", "GHC") else exceedance.zero_profile(d)
                for g in (0.5, 3.0, 12.0):
                    bv = crossing.invert_bounds(method, g, d, prof)
                    b = bv.b[d - js]
                    assert np.all(np.isfinite(b))
                    below, _ = setstats.objective_values(method, b * (1 - 1e-9), js, d, own)
                    above, _ = setstats.objective_values(method, b * (1 + 1e-9), js, d, own)
                    assert np.all(below < g), (method, d, g)
                    assert np.all(above >= g), (method, d, g)

    def test_negative_g_rejected(self):
        with pytest.raises(DomainError):
            crossing.invert_bounds("GBJ", -0.5, 6, exceedance.zero_profile(6))
        with pytest.raises(DomainError):
            crossing.invert_bounds("GBJ", np.array([1.0, -0.5]), 6, exceedance.zero_profile(6))
        with pytest.raises(DomainError):
            crossing.invert_bounds("GBJ", np.ones((2, 2)), 6, exceedance.zero_profile(6))

    @pytest.mark.parametrize("method", setstats.ALL_METHODS)
    def test_nan_g_rejected(self, method):
        prof = exceedance.zero_profile(6)
        with pytest.raises(DomainError):
            crossing.invert_bounds(method, np.nan, 6, prof)
        with pytest.raises(DomainError):
            crossing.invert_bounds(method, np.array([1.0, np.nan]), 6, prof)


class TestBatchedInversion:
    """``invert_bounds`` over an array of g: one search for all of them."""

    @pytest.mark.parametrize("d", [5, 20, 100])
    def test_batch_matches_scalar_calls(self, rng, d):
        prof = exceedance.corr_powers(rand_corr(d, rng, factor=1))
        gs = np.array([0.0, 0.4, 1.7, 3.0, 6.5, 12.0, 25.0])
        for method in setstats.ALL_METHODS:
            scalar = [crossing.invert_bounds(method, float(g), d, prof) for g in gs]
            for g, want in zip(gs, scalar):
                [one] = crossing.invert_bounds(method, np.array([g]), d, prof)
                assert np.array_equal(one.b, want.b), (method, d, g)
                assert one.diagnostics == want.diagnostics
            batch = crossing.invert_bounds(method, gs, d, prof)
            assert len(batch) == gs.size
            for got, want in zip(batch, scalar):
                fin = np.isfinite(want.b)
                assert np.array_equal(np.isfinite(got.b), fin)
                np.testing.assert_allclose(got.b[fin], want.b[fin], rtol=1e-12, atol=0)

    def test_unreachable_g_fails_alone(self):
        d = 20
        prof = exceedance.zero_profile(d)
        gs = np.array([2.0, 1e6, 3.0])
        with pytest.raises(NumericalError) as scalar:
            crossing.invert_bounds("BJ", 1e6, d, prof)
        batch = crossing.invert_bounds("BJ", gs, d, prof)
        assert isinstance(batch[1], NumericalError)
        assert str(batch[1]) == str(scalar.value)
        for i in (0, 2):
            want = crossing.invert_bounds("BJ", float(gs[i]), d, prof).b
            np.testing.assert_allclose(batch[i].b, want, rtol=1e-12, atol=0)

    def test_bootstrap_sized_inversion_stays_small(self, monkeypatch):
        # the objective holds O(1) values per entry at every d, so the 100
        # replicates of a d = 500 bootstrap share each call and peak near
        # 28 MiB; EBB prefix tables for them would take about 600 MB.  GBJ
        # searches (BJ's roots take no objective call), here on BJ's law
        d, B = 500, 100
        sizes = []
        objective = setstats.objective_values

        def record(method, t, *args, **kwargs):
            sizes.append(np.size(t))
            return objective(method, t, *args, **kwargs)

        monkeypatch.setattr(setstats, "objective_values", record)
        gs = np.random.default_rng(0).uniform(0.5, 12.0, size=B)
        tracemalloc.start()
        try:
            out = crossing.invert_bounds("GBJ", gs, d, exceedance.zero_profile(d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(isinstance(b, BoundaryVector) for b in out)
        assert max(sizes) == B * (d // 2)
        assert peak < 64 * 2**20


class TestWarmSearch:
    """``_BoundSearch`` brackets each inversion by the raw roots of the g
    values it has already inverted."""

    @pytest.mark.parametrize("d", [6, 20, 100])
    def test_warm_inversions_match_cold_calls(self, rng, d, monkeypatch):
        prof = exceedance.corr_powers(rand_corr(d, rng, factor=1))
        # a ladder, points between its rungs, a g within the gap of an
        # inverted one, g = 0 and a g above every inverted one
        gs = [1e-10, 1.0, 1.6, 2.56, 4.096, 3.1, 2.0, 3.1 * (1.0 + 1e-12), 0.0, 30.0]
        calls = []
        objective = setstats.objective_values

        def record(method, t, *args, **kwargs):
            calls.append(np.size(t))
            return objective(method, t, *args, **kwargs)

        monkeypatch.setattr(setstats, "objective_values", record)
        for method in ("GBJ", "BJ", "HC", "GHC"):
            own = prof if method in setstats.PROFILE_METHODS else None
            search = crossing._BoundSearch(method, d, own)
            calls.clear()
            warm = [search.invert(np.array([g]))[0] for g in gs]
            warm_calls = len(calls)
            calls.clear()
            cold = [crossing.invert_bounds(method, g, d, own) for g in gs]
            # BJ and HC, like MinP, take their roots without a search
            if method in setstats.PROFILE_METHODS:
                assert warm_calls < len(calls), method
            for g, got, want in zip(gs, warm, cold):
                fin = np.isfinite(want.b)
                assert np.array_equal(np.isfinite(got.b), fin)
                np.testing.assert_allclose(got.b[fin], want.b[fin], rtol=1e-12, atol=0,
                                           err_msg=f"{method} g={g}")
                assert got.diagnostics == want.diagnostics

    def test_errors_keep_their_messages(self):
        d = 20
        search = crossing._BoundSearch("BJ", d, None)
        search.invert(np.array([2.0, 5.0]))
        [err] = search.invert(np.array([1e6]))
        with pytest.raises(NumericalError) as cold:
            crossing.invert_bounds("BJ", 1e6, d, None)
        assert isinstance(err, NumericalError)
        assert str(err) == str(cold.value)
        assert "never reaches" in str(err)
        # a failed g joins no table: the next inversion is still exact
        [after] = search.invert(np.array([7.0]))
        np.testing.assert_allclose(after.b, crossing.invert_bounds("BJ", 7.0, d, None).b,
                                   rtol=1e-12, atol=0)



class TestInversionStop:
    """An inversion stops once its excess is within OBJECTIVE_ROUNDING (1 + g),
    the objective's own rounding, instead of bisecting below it."""

    @pytest.mark.parametrize("d", [6, 20, 100, 500])
    def test_matches_a_solve_to_a_few_ulps(self, d, monkeypatch):
        model = exceedance.correlation_model(exchangeable(d, 0.3))
        absz = ndtri(1.0 - (np.arange(d) + 0.5) / (2 * d))
        signal = absz.copy()
        signal[:2] = (4.5, 5.0)
        for method in ("GBJ", "BJ", "HC", "GHC"):
            prof = model.profile if method in setstats.PROFILE_METHODS else None
            gs = np.array([setstats.compute_statistic(method, setstats.ZVector(z),
                                                      model).statistic
                           for z in (1.3 * absz, signal)])
            got = crossing.invert_bounds(method, gs, d, prof)
            monkeypatch.setattr(crossing, "OBJECTIVE_ROUNDING", 0.0)
            want = crossing.invert_bounds(method, gs, d, prof)
            monkeypatch.undo()
            for g, a, b in zip(gs, got, want):
                p_got = crossing.crossing_pvalue(a, model)
                p_want = crossing.crossing_pvalue(b, model)
                assert p_got == pytest.approx(p_want, rel=1e-10, abs=0), f"{method} g={g}"


def record_objective(monkeypatch):
    """Routes setstats.objective_values through a recorder; returns the list
    that receives the number of thresholds of each call."""
    calls = []
    objective = setstats.objective_values

    def record(method, t, *args, **kwargs):
        calls.append(np.size(t))
        return objective(method, t, *args, **kwargs)

    monkeypatch.setattr(setstats, "objective_values", record)
    return calls


class TestClosedFormRoots:
    """HC's roots in closed form and BJ's by Newton, without a search, and
    GBJ's and GHC's searches seeded from them."""

    @pytest.mark.parametrize("method", ["HC", "BJ"])
    @pytest.mark.parametrize("d", [2, 3, 5, 10, 20, 50, 100, 200, 500])
    def test_objective_at_the_root_is_g(self, method, d, monkeypatch):
        js = np.arange(1, d // 2 + 1)
        gs = np.concatenate(([0.0], np.geomspace(1e-6, 300.0, 30)))
        calls = record_objective(monkeypatch)
        inverted = crossing.invert_bounds(method, gs, d, None)
        assert calls == []
        monkeypatch.undo()
        for g, bounds in zip(gs, inverted):
            assert bounds.diagnostics == ()
            vals, _ = setstats.objective_values(method, bounds.b[d - js], js, d, None)
            err = np.abs(vals - g)
            assert np.all(err <= crossing.OBJECTIVE_ROUNDING * (1.0 + g)), (g, err.max())

    @pytest.mark.parametrize("method", ["HC", "BJ"])
    @pytest.mark.parametrize("d", [5, 20, 50, 200])
    def test_bound_at_the_achieving_index_is_the_observed_z(self, method, d):
        # the statistic and its bounds come from one closed form: inverted at
        # the observed value, the achieving index's bound is its |Z|
        rng = np.random.default_rng(d)
        checked = 0
        for _ in range(25):
            Z = setstats.ZVector(rng.standard_normal(d) * rng.uniform(1.0, 2.5))
            out = setstats.compute_statistic(method, Z)
            if out.achieving_index is None:
                continue
            at = d - out.achieving_index
            b = crossing.invert_bounds(method, out.statistic, d, None).b[at]
            assert abs(b - Z.abs_order[at]) <= 1e-12 * Z.abs_order[at], (b, Z.abs_order[at])
            checked += 1
        assert checked >= 20

    def test_unreachable_bj_keeps_its_message(self):
        # the objective at t = 38 (lam floored at 1e-310) is about 1 * 713 at
        # j = 1, the smallest over the indices
        for d, g in ((20, 1e6), (20, 720.0), (500, 1e5)):
            with pytest.raises(NumericalError) as err:
                crossing.invert_bounds("BJ", g, d, None)
            assert str(err.value) == f"BJ: objective never reaches g={g} by t=38.0 at index j=1"

    @pytest.mark.parametrize("method, calls_at", [("GBJ", 6), ("GHC", 5)])
    def test_seeded_search_calls(self, method, calls_at, monkeypatch):
        # a scan-like set: four blocks of five, two strong signals among
        # half-normal quantiles.  With the cold bracket at [t_min + 1e-9,
        # t_min + 1], these inversions took 10 (GBJ) and 15 (GHC) objective
        # calls, and BJ and HC 11 and 15; with a call for the objective at
        # t_min + 1e-9, 7 and 6.
        d = 20
        Sigma = np.eye(d)
        for k, rho in enumerate((0.2, 0.3, 0.4, 0.5)):
            Sigma[5 * k:5 * k + 5, 5 * k:5 * k + 5] = rho
        np.fill_diagonal(Sigma, 1.0)
        model = exceedance.correlation_model(Sigma)
        absz = ndtri(1.0 - (np.arange(d) + 0.5) / (2 * d))
        absz[:2] = (4.5, 5.0)
        g = setstats.compute_statistic(method, setstats.ZVector(absz), model).statistic
        calls = record_objective(monkeypatch)
        crossing.invert_bounds(method, g, d, model.profile)
        assert len(calls) == calls_at


def _two_factor(d, max_rho, rng):
    """A rank-2 factor correlation whose largest off-diagonal |rho| is max_rho."""
    U = rng.standard_normal((d, 2))
    U /= np.linalg.norm(U, axis=1)[:, None]
    C = U @ U.T
    c = max_rho / np.max(np.abs(C - np.eye(d)))
    return c * C + (1.0 - c) * np.eye(d)


def _boundary_models(d):
    rng = np.random.default_rng(d)
    return {"identity": np.eye(d), "exchangeable 0.3": exchangeable(d, 0.3),
            "exchangeable 0.9": exchangeable(d, 0.9), "two-factor": _two_factor(d, 0.6, rng)}


class TestIndicatorBoundary:
    """A search takes the excess at the indicator boundary t_min + 1e-9 as
    -g, without evaluating the objective there: every objective is within
    1e-8 of zero at that point."""

    @pytest.mark.parametrize("d", [2, 5, 20, 100, 500])
    def test_objectives_vanish_at_the_boundary(self, d):
        js = np.arange(1, d // 2 + 1)
        t_lo = ndtri(1.0 - js / (2.0 * d)) + 1e-9
        for name, Sigma in _boundary_models(d).items():
            profile = exceedance.correlation_model(Sigma).profile
            np.testing.assert_array_equal(crossing._BoundSearch("GBJ", d, profile).t_lo, t_lo)
            for method in ("GBJ", "BJ", "HC", "GHC"):
                vals, _ = setstats.objective_values(method, t_lo, js, d, profile)
                assert np.max(np.abs(vals)) <= 1e-8, (name, method)

    @pytest.mark.parametrize("d", [5, 20, 100])
    def test_g_below_the_boundary_objective_stays_at_the_boundary(self, d):
        # on the two-factor Sigma GBJ's objective at t_min + 1e-9 is about
        # 2e-9 to 5e-9 at every index, so a g of 1e-10 is reached there:
        # a search that once evaluated the boundary returned it exactly
        g = 1e-10
        model = exceedance.correlation_model(_two_factor(d, 0.6, np.random.default_rng(d)))
        js = np.arange(1, d // 2 + 1)
        t_lo = crossing._BoundSearch("GBJ", d, model.profile).t_lo
        vals, _ = setstats.objective_values("GBJ", t_lo, js, d, model.profile)
        assert np.all(vals >= g)
        bounds = crossing.invert_bounds("GBJ", g, d, model.profile)
        assert np.max(np.abs(bounds.b[d - js] - t_lo)) <= 1e-9
        at_boundary = np.full(d, np.inf)
        at_boundary[d - js] = t_lo
        want = crossing.crossing_pvalue(BoundaryVector(at_boundary), model)
        assert crossing.crossing_pvalue(bounds, model) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("d, ceilings", [(5, (6, 6, 4, 5)), (20, (7, 8, 6, 6)),
                                             (50, (8, 8, 7, 9))])
    def test_inversion_call_ceilings(self, d, ceilings, monkeypatch):
        # GBJ and GHC on exchangeable 0.3 and on a two-factor Sigma (largest
        # |rho| 0.6), at the statistic of two strong signals among half-normal
        # quantiles; the ceilings are the calls these inversions take, one
        # fewer each than with a call for the objective at t_min + 1e-9
        absz = ndtri(1.0 - (np.arange(d) + 0.5) / (2 * d))
        absz[:2] = (4.5, 5.0)
        Z = setstats.ZVector(absz)
        sigmas = (exchangeable(d, 0.3), _two_factor(d, 0.6, np.random.default_rng(d)))
        cases = [(method, Sigma) for method in ("GBJ", "GHC") for Sigma in sigmas]
        for (method, Sigma), ceiling in zip(cases, ceilings):
            model = exceedance.correlation_model(Sigma)
            g = setstats.compute_statistic(method, Z, model).statistic
            calls = record_objective(monkeypatch)
            crossing.invert_bounds(method, g, d, model.profile)
            monkeypatch.undo()
            assert len(calls) <= ceiling, (method, len(calls))


class TestCrossingPvalue:
    def test_single_coordinate(self):
        bv = BoundaryVector(b=np.array([1.7]))
        want = 2 * gauss.norm_sf(1.7)
        assert crossing.crossing_pvalue(bv, np.eye(1)) == pytest.approx(want, rel=1e-12)

    def test_minp_identity_closed_form(self):
        d = 5
        t = 2.575829
        bv = crossing.invert_bounds("MinP", t, d, exceedance.zero_profile(d))
        want = 1.0 - (1.0 - 2 * gauss.norm_sf(t)) ** d
        assert crossing.crossing_pvalue(bv, np.eye(d)) == pytest.approx(want, abs=1e-8)

    def test_identity_matches_independent_recursion(self, rng):
        for d in (4, 7, 12):
            for _ in range(8):
                nfin = int(rng.integers(1, d + 1))
                bounds = np.full(d, np.inf)
                bounds[d - nfin:] = np.sort(rng.uniform(0.6, 3.2, size=nfin))
                bv = BoundaryVector(b=bounds)
                got = crossing.crossing_pvalue(bv, np.eye(d))
                want = independent_ladder(bounds)
                assert got == pytest.approx(want, abs=1e-10)

    def test_tied_bounds_collapse(self):
        d = 4
        bv = BoundaryVector(b=np.array([np.inf, 2.0, 2.0, 2.5]))
        got = crossing.crossing_pvalue(bv, np.eye(d))
        want = independent_ladder(bv.b)
        assert got == pytest.approx(want, abs=1e-12)

    def test_vacuous_bounds_probability_zero(self):
        bv = BoundaryVector(b=np.full(6, np.inf))
        assert crossing.crossing_pvalue(bv, np.eye(6)) == 0.0

    def test_zero_threshold_certain_crossing(self):
        bv = BoundaryVector(b=np.array([0.0, 1.0, 2.0]))
        assert crossing.crossing_pvalue(bv, np.eye(3)) == 1.0

    def test_monotone_in_bounds(self, rng):
        d = 8
        Sigma = exchangeable(d, 0.35)
        base = np.full(d, np.inf)
        base[4:] = [1.2, 1.7, 2.1, 2.6]
        p0 = crossing.crossing_pvalue(BoundaryVector(b=base.copy()), Sigma)
        for i in range(4, 8):
            grown = base.copy()
            grown[i:] = np.maximum(grown[i:], grown[i] + 0.25)
            p1 = crossing.crossing_pvalue(BoundaryVector(b=grown), Sigma)
            assert p1 <= p0 + 1e-12

    def test_permutation_invariance(self, rng):
        d = 7
        Sigma = rand_corr(d, rng)
        z = rng.multivariate_normal(np.zeros(d), Sigma) + 0.7
        perm = rng.permutation(d)
        for method in ("GBJ", "HC", "MinP"):
            a = crossing.pvalue(method, setstats.ZVector(z), Sigma)
            b = crossing.pvalue(method, setstats.ZVector(z[perm]),
                                Sigma[np.ix_(perm, perm)])
            assert a.pvalue == pytest.approx(b.pvalue, rel=1e-9)

    def test_mass_conservation_per_stage(self, rng):
        d = 9
        Sigma = exchangeable(d, 0.3)
        bounds = np.full(d, np.inf)
        bounds[5:] = np.sort(rng.uniform(1.0, 3.0, size=4))
        p, table = crossing.crossing_pvalue(BoundaryVector(b=bounds), Sigma,
                                            return_table=True)
        assert table.leaks.size == 4
        assert np.all((table.leaks >= 0.0) & (table.leaks <= 1.0))
        leaked = 0.0
        for leak in table.leaks:
            leaked += leak
        assert p == min(max(leaked, 0.0), 1.0)

    def test_perfectly_correlated_pair_supported(self, monkeypatch):
        d = 3
        Sigma = np.eye(3)
        Sigma[0, 1] = Sigma[1, 0] = 1.0
        bounds = np.array([np.inf, np.inf, 2.0])
        p = crossing.crossing_pvalue(BoundaryVector(b=bounds), Sigma)
        assert 0.0 < p < 1.0
        # Z_0 = Z_1: their pair never reaches the series (|rho| = 1 is outside
        # its domain) and carries the single-coordinate tail 2 sf(t) instead
        seen = record_series(monkeypatch)
        Sigma = exchangeable(4, 0.3)
        Sigma[0, 1] = Sigma[1, 0] = 1.0
        bv = BoundaryVector(b=np.array([np.inf, 1.5, 2.0, 2.5]))
        p = crossing.crossing_pvalue(bv, Sigma)
        assert 0.0 < p < 1.0
        # one call evaluates all three stages
        assert len(seen) == 1 and seen[0][0] == 3
        # the five other pairs share |rho| = 0.3, one atom of the pair summary
        assert all(r.size == 1 and np.all(np.abs(r) < 1.0) for _, r in seen)
        flip = np.diag([1.0, -1.0, 1.0, 1.0])     # Z_1 = -Z_0: same |Z|
        assert crossing.crossing_pvalue(bv, flip @ Sigma @ flip) == p
        # d = 2, one perfect pair: |Z|_(1) > b_1 is the whole event
        seen.clear()
        p2 = crossing.crossing_pvalue(BoundaryVector(b=np.array([1.5, 2.0])), np.ones((2, 2)))
        assert not seen
        assert p2 == pytest.approx(2.0 * gauss.norm_sf(1.5), rel=1e-9)

    def test_subnormal_pair_tail_takes_lambda_squared(self):
        # independent coordinates: the pair tail (2 sf(t))^2 is subnormal at
        # 26.8 and 0 beyond, so the next stage's ratio has no digits; it
        # takes lambda^2, and gamma stays 0 as the exact binomial law has it
        b = [np.inf] * 4 + [1.0, 26.8, 27.2, 27.6]
        p, table = crossing.crossing_pvalue(BoundaryVector(b=np.array(b)), np.eye(8),
                                            return_table=True)
        assert table.diagnostics == ("pair_tail_underflow",)
        assert abs(p - independent_ladder(b)) <= 3e-16

    def test_non_monotone_bounds_rejected(self):
        with pytest.raises(DomainError):
            BoundaryVector(b=np.array([2.0, 1.0, 3.0]))

    @pytest.mark.parametrize("b", [[-np.inf, 1.0], [np.nan, 1.0], [np.nan, np.nan],
                                   [np.inf, np.nan]])
    def test_only_plus_inf_is_vacuous(self, b):
        # -inf would be a certain crossing and NaN no bound at all; neither
        # may pass for a vacuous entry
        with pytest.raises(DomainError):
            BoundaryVector(b=np.array(b))

    def test_dimension_mismatch(self):
        bv = BoundaryVector(b=np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            crossing.crossing_pvalue(bv, np.eye(3))


def _flipped(S, signs):
    D = np.diag(signs)
    return D @ S @ D


def _with_perfect_pair(S):
    S = S.copy()
    S[1, :] = S[:, 1] = S[0, :]
    S[1, 1] = 1.0
    return S


def _block_with_zero_blocks(d):
    S = np.eye(d)
    for start in range(0, d, 10):
        if start // 10 % 2 == 0:
            S[start:start + 10, start:start + 10] = 0.5
    np.fill_diagonal(S, 1.0)
    return S


ATOM_MATRICES = {
    "exchangeable": exchangeable(12, 0.3),
    "block_with_zero_blocks": _block_with_zero_blocks(40),
    "sign_flipped": _flipped(exchangeable(9, 0.45), [1, -1, 1, 1, -1, -1, 1, -1, 1]),
    "perfect_pair": _with_perfect_pair(exchangeable(8, 0.35)),
}


def _distinct_corr(d):
    """A fixed random-factor matrix: every pair has its own |rho|."""
    return rand_corr(d, np.random.default_rng(7))


class TestPairSummary:
    @pytest.mark.parametrize("name", sorted(ATOM_MATRICES) + ["random_with_perfect_pair"])
    def test_atom_and_per_pair_paths_agree(self, name):
        S = (ATOM_MATRICES[name] if name in ATOM_MATRICES
             else _with_perfect_pair(_distinct_corr(30)))
        model = exceedance.CorrelationModel(S)
        d = model.d
        z = setstats.ZVector(np.linspace(0.4, 4.2, d) * np.where(np.arange(d) % 2, 1.0, -1.0))
        ladders = []
        for method in ("GBJ", "BJ", "HC", "GHC"):
            g = setstats.compute_statistic(method, z, model).statistic
            profile = model.profile if method in setstats.PROFILE_METHODS else None
            ladders.append(crossing.invert_bounds(method, g, d, profile))
        deep = np.full(d, np.inf)
        deep[-3:] = (1.0, 28.0, 29.0)            # pair tails underflow past t = 27
        ladders.append(BoundaryVector(b=deep))
        for bv in ladders:
            p, table = crossing.crossing_pvalue(bv, model, return_table=True)
            want_p, want_leaks, want_flags = per_stage_reference(bv, S, per_pair=True)
            assert p == pytest.approx(want_p, rel=1e-12, abs=0.0)
            np.testing.assert_allclose(table.leaks, want_leaks, rtol=1e-12, atol=0.0)
            assert set(table.diagnostics) == want_flags
        assert "pair_tail_underflow" in want_flags

    def test_counts_cover_the_non_perfect_pairs(self):
        S = _with_perfect_pair(_flipped(exchangeable(8, 0.35), [1, 1, -1, 1, 1, -1, 1, 1]))
        S[2:4, 5:7] = S[5:7, 2:4] = 0.1
        summary = exceedance.CorrelationModel(S).pair_summary
        # rows 0 and 1 are one coordinate: 1 perfect pair of 28
        assert summary.n_perfect == 1
        assert summary.counts.sum() == 27
        # +-0.35 and +-0.1 are two atoms, not four
        np.testing.assert_array_equal(summary.rhos, [0.1, 0.35])
        np.testing.assert_array_equal(summary.counts, [4, 23])

    def test_distinct_correlations_stay_one_by_one(self, rng):
        # distinct |rho| give one atom per pair, ascending
        S = rand_corr(10, rng)
        summary = exceedance.CorrelationModel(S).pair_summary
        assert summary.n_perfect == 0
        np.testing.assert_array_equal(summary.rhos, np.sort(np.abs(S[np.triu_indices(10, k=1)])))
        np.testing.assert_array_equal(summary.counts, np.ones(45))
        assert summary.counts.dtype == float

    @staticmethod
    def _series_calls(monkeypatch, S):
        """(thresholds, pairs) of each call of the series in one p-value."""
        calls = record_series(monkeypatch)
        bounds = np.full(40, np.inf)
        bounds[-4:] = (1.5, 2.0, 2.5, 3.0)
        crossing.crossing_pvalue(BoundaryVector(b=bounds), S)
        return [(t, r.size) for t, r in calls]

    @pytest.mark.parametrize("shared", (True, False))
    def test_recursion_reaches_the_series_through_the_module(self, shared, monkeypatch):
        # the traced benchmark wraps gauss.bivar_abs_tail_many by name; one
        # call evaluates all four stages, on 2 atoms or on 780 distinct |rho|
        S = ATOM_MATRICES["block_with_zero_blocks"] if shared else _distinct_corr(40)
        assert self._series_calls(monkeypatch, S) == [(4, 2 if shared else 780)]

    def test_pairs_filling_a_block_take_one_stage_per_call(self, monkeypatch):
        monkeypatch.setattr(crossing, "PAIR_BLOCK_ENTRIES", 780)
        assert self._series_calls(monkeypatch, _distinct_corr(40)) == [(1, 780)] * 4


def per_stage_reference(bounds: BoundaryVector, Sigma, per_pair: bool = False,
                        table: bool = False):
    """The recursion stage by stage, each stage's pair tails from a scalar
    call of the series: returns (p, leaks, diagnostics).  The pair sums run
    over the pair summary's atoms, or with ``per_pair`` over ``model.pairs``
    one pair at a time, a perfect pair (|rho| = 1 within 1e-12) taking the
    single-coordinate tail.  Each count step is the library's count loop run
    on one stage, carrying its count law from stage to stage, or with
    ``table`` the product with ``transition_reference``'s rows."""
    model = exceedance.correlation_model(Sigma)
    d = model.d
    thresholds, caps = crossing._stages(bounds)
    if per_pair:
        perfect = np.abs(model.pairs) >= 1.0 - 1e-12
        rhos, n_perfect = model.pairs[~perfect], int(perfect.sum())
        counts = np.ones(rhos.size)
    else:
        pairs = model.pair_summary
        rhos, counts, n_perfect = pairs.rhos, pairs.counts, pairs.n_perfect
    n = rhos.size
    flags = list(bounds.diagnostics)
    sf_prev, cap_prev = 0.5, d
    tails_prev = np.ones(n + (n_perfect > 0))
    q, k = np.zeros(d + 1), 0
    q[d] = 1.0
    leaks = []
    for t_k, cap_k in zip(thresholds, caps):
        sf_k = float(gauss.norm_sf(t_k))
        lam = sf_k / sf_prev if sf_prev > 0.0 else 0.0
        if lam <= 0.0:
            flags.append("lambda_underflow")
            lam = 1e-300
        if lam >= 1.0:
            lam = 1.0 - 1e-16
        if d >= 2:
            tails_k = gauss.bivar_abs_tail_many(t_k, rhos) if n else np.empty(0)
            if n_perfect:
                tails_k = np.append(tails_k, 2.0 * sf_k)
            np.clip(tails_k, 0.0, 1.0, out=tails_k)
            with np.errstate(invalid="ignore", divide="ignore"):
                ratios = tails_k / tails_prev
            # a tail at t_{k-1} below the smallest normal double gives no
            # usable ratio
            under = tails_prev < np.finfo(float).tiny
            if under.any():
                flags.append("pair_tail_underflow")
                ratios[under] = lam * lam
            np.clip(ratios, 0.0, 1.0, out=ratios)
            ratios -= lam * lam
            total = ratios[:n] @ counts
            if n_perfect:
                total += n_perfect * ratios[n]
            frac = 2.0 * float(total) / (d * (d - 1) * lam * (1.0 - lam))
            tails_prev = tails_k
        else:
            frac = 0.0
        gamma, clamped = ebb.match_gamma(lam, frac, max(cap_prev, 1))
        if clamped:
            flags.append("ebb_gamma_clamped")
        if table:
            q = table_step(q[: cap_prev + 1], cap_prev, lam, gamma)
            leaks.append(float(q[cap_k + 1:].sum()))
        else:
            leak, q, k = crossing._count_loop(q, k, np.array([lam]), np.array([gamma]),
                                              np.array([cap_prev]), np.array([cap_k]))
            leaks += leak
        sf_prev, cap_prev = sf_k, cap_k
    return float(min(max(sum(leaks), 0.0), 1.0)), np.array(leaks), set(flags)


def _reference_bounds(d):
    """A GBJ-like ladder over the upper half of the indices, and a deep one
    whose pair tails and lambdas underflow."""
    ladder = np.full(d, np.inf)
    ladder[d // 2:] = np.linspace(0.8, 3.6, d - d // 2)
    deep = np.full(d, np.inf)
    deep[-4:] = (1.0, 28.0, 39.0, 40.0)
    return BoundaryVector(b=ladder), BoundaryVector(b=deep)


def _steep_bounds(d):
    """A ladder that rises slowly from 0.5 and then jumps: the pair tail at
    26.0 is a normal double and at 27.5 it is 0, so the last stage's pair
    fraction is negative and its gamma is clamped."""
    steep = np.full(d, np.inf)
    steep[d // 2:] = np.r_[np.linspace(0.5, 0.9, d - d // 2 - 3), 1.0, 26.0, 27.5]
    return BoundaryVector(b=steep)


class TestStagesAtOnce:
    """``crossing_pvalue`` evaluates every stage's pair tails and dispersion
    before the stage loop; it matches the stage-by-stage recursion exactly,
    and the recursion with table-product count steps within 1e-12."""

    def _check(self, S):
        """Compares both bounds of _reference_bounds; returns the deep
        bounds' diagnostics."""
        for bv in _reference_bounds(S.shape[0]):
            p, table = crossing.crossing_pvalue(bv, S, return_table=True)
            want_p, want_leaks, want_flags = per_stage_reference(bv, S)
            assert p == want_p
            np.testing.assert_array_equal(table.leaks, want_leaks)
            assert set(table.diagnostics) == want_flags
            # each flag is named once, however many stages raise it
            assert len(table.diagnostics) == len(set(table.diagnostics))
            table_p, table_leaks, _ = per_stage_reference(bv, S, table=True)
            assert p == pytest.approx(table_p, rel=1e-12, abs=0.0)
            np.testing.assert_allclose(table.leaks, table_leaks, rtol=1e-12, atol=0.0)
        return want_flags

    @pytest.mark.parametrize("name", sorted(ATOM_MATRICES))
    def test_atom_path(self, name):
        flags = self._check(ATOM_MATRICES[name])
        assert {"lambda_underflow", "pair_tail_underflow"} <= flags

    def test_per_pair_path(self, rng):
        # all-distinct |rho|: one pair per atom
        S = rand_corr(30, rng)
        assert np.all(exceedance.CorrelationModel(S).pair_summary.counts == 1.0)
        self._check(S)

    def test_tails_carry_across_blocks(self, rng, monkeypatch):
        # 3 stages per call: the first stage of each block divides by the
        # last tails of the block before it
        S = _with_perfect_pair(rand_corr(12, rng))
        monkeypatch.setattr(crossing, "PAIR_BLOCK_ENTRIES", 3 * 66)
        calls = record_series(monkeypatch)
        crossing.crossing_pvalue(_reference_bounds(12)[0], S)
        assert [t for t, _ in calls] == [3, 3]
        self._check(S)

    def test_prefix_blocks(self, monkeypatch):
        # 3 stages per block of EBB prefixes: the 20-stage ladder spans 7
        # blocks and the deep one 2.  The size-d prefixes past a stage's own
        # m_max are never read; the steep ladder's last stage has a gamma
        # infeasible there, so those entries are NaN and must warn nowhere
        d = 40
        monkeypatch.setattr(crossing, "PAIR_BLOCK_ENTRIES", 3 * 3 * (d + 1))
        nans = []
        prefixes = ebb._log_factor_prefixes

        def record(*args):
            out = prefixes(*args)
            nans.append(sum(int(np.isnan(p).sum()) for p in out))
            return out

        monkeypatch.setattr(ebb, "_log_factor_prefixes", record)
        ladder, deep = _reference_bounds(d)
        cases = {"ladder": (_block_with_zero_blocks(d), ladder),
                 "deep": (exchangeable(d, 1.0), deep),
                 "steep": (np.eye(d), _steep_bounds(d))}
        flags, blocks, padded_nans = {}, {}, {}
        for name, (S, bv) in cases.items():
            nans.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                p, table = crossing.crossing_pvalue(bv, S, return_table=True)
            blocks[name], padded_nans[name] = len(nans), sum(nans)
            want_p, want_leaks, flags[name] = per_stage_reference(bv, S)
            assert p == want_p
            np.testing.assert_array_equal(table.leaks, want_leaks)
            assert set(table.diagnostics) == flags[name]
        assert blocks == {"ladder": 7, "deep": 2, "steep": 7}
        assert {"lambda_underflow", "ebb_gamma_clamped"} <= flags["deep"]
        assert padded_nans["steep"] > 0


def library_step(q, size: int, lam: float, gamma: float) -> np.ndarray:
    """One count step by the library's count loop, on a law q over m = 0 ..
    size with nothing past its cap: q_new over a = 0 .. size."""
    _, q, k = crossing._count_loop(np.array(q, dtype=float), 0, np.array([lam]),
                                   np.array([gamma]), np.array([size]), np.array([size]))
    return np.ldexp(q, -k)


def table_loop(d: int, plan) -> np.ndarray:
    """The leaks of a stage plan's count loop with ``table_step`` steps."""
    q = np.zeros(d + 1)
    q[d] = 1.0
    leaks = []
    for lam, gamma, m_max, cap in zip(plan.lam, plan.gamma, plan.m_maxes, plan.caps):
        q_new = table_step(q[: m_max + 1], int(m_max), float(lam), float(gamma))
        leaks.append(float(q_new[cap + 1:].sum()))
        q = q_new[: cap + 1]
    return np.array(leaks)


STRESS_LAMS = (1e-300, 1e-100, 1e-10, 0.01, 0.5, 0.99, 1.0 - 1e-16)


def _stress_gammas(lam: float, size: int) -> list[float]:
    """Just inside the feasibility floor, half of it, binomial, and
    overdispersion from 1e-3 to 1e12; any gamma is feasible at size <= 1."""
    floor = float(ebb.gamma_floor(lam, size))
    near = [floor * (1.0 - ebb.GAMMA_CLAMP_MARGIN), floor / 2] if np.isfinite(floor) else []
    return near + [0.0, 1e-3, 1.0, 1e3, 1e12]


def _stress_laws(size: int) -> np.ndarray:
    """Count laws over m = 0 .. size: flat, spiked at the top, spiked in the
    middle, and flat at 1e-200."""
    n = size + 1
    top, mid = np.zeros(n), np.zeros(n)
    top[-1] = mid[n // 2] = 1.0
    return np.array([np.full(n, 1.0 / n), top, mid, np.full(n, 1e-200)])


def _oracle_bound(table_error: float) -> float:
    """The error a count loop may have against the longdouble oracle: twice
    that of the float64 table path, or 1e-13."""
    return max(2.0 * table_error, 1e-13)


class TestCountLoop:
    """The count loop's steps as correlations against a longdouble direct sum
    (``oracle_step``, ``oracle_loop``): on the entries above 1e-200 of the
    largest and above 1e-290 (``relevant``), the relative error is at most
    max(2 x that of ``transition_reference``'s table arithmetic, 1e-13)."""

    @LONGDOUBLE_ORACLE
    @pytest.mark.parametrize("m_max", [0, 1, 2, 7, 64, 100, 500, 700, 1500])
    def test_stress_grid_against_the_oracle(self, m_max):
        # at 700 and 1500 a stage takes several tiles.  At 1500, where a
        # longdouble step takes about 0.3 s, three lambdas and three gammas
        lams = STRESS_LAMS if m_max < 1500 else (1e-100, 0.5, 1.0 - 1e-16)
        laws = _stress_laws(m_max)
        for lam in lams:
            gammas = _stress_gammas(lam, m_max)
            for gamma in (gammas if m_max < 1500 else (gammas[0], 0.0, 1e3)):
                want = oracle_step(laws, m_max, lam, gamma)
                table = table_step(laws, m_max, lam, gamma)
                for q, w, t in zip(laws, want, table):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = library_step(q, m_max, lam, gamma)
                    mask = relevant(w)
                    assert mask.any()
                    err, table_err = rel_error(got, w, mask), rel_error(t, w, mask)
                    assert err <= _oracle_bound(table_err), (lam, gamma, q[:2], err, table_err)

    @staticmethod
    def _check_loop(d, model, bv, plan):
        """p and leaks of one plan against the oracle, within the bound."""
        p, table = crossing.crossing_pvalue(bv, model, return_table=True, plan=plan)
        want = oracle_loop(d, plan.lam, plan.gamma, plan.m_maxes, plan.caps)
        table_leaks = table_loop(d, plan)
        mask = relevant(want)
        assert rel_error(table.leaks, want, mask) <= _oracle_bound(
            rel_error(table_leaks, want, mask))
        whole = np.array([True])
        table_p = min(max(sum(table_leaks.tolist()), 0.0), 1.0)
        assert rel_error([p], [want.sum()], whole) <= _oracle_bound(
            rel_error([table_p], [want.sum()], whole))

    @LONGDOUBLE_ORACLE
    @pytest.mark.parametrize("d", [8, 40, 100, 200, 500])
    def test_loop_against_the_oracle(self, d):
        sigmas = (exchangeable(d, 0.3), exchangeable(d, 0.9), np.ones((d, d)), np.eye(d),
                  rand_corr(d, np.random.default_rng(d)))
        for S in sigmas:
            model = exceedance.correlation_model(S)
            bounds = [*_reference_bounds(d), _steep_bounds(d)]
            for bv, plan in zip(bounds, crossing._stage_plans(bounds, model)):
                self._check_loop(d, model, bv, plan)

    @LONGDOUBLE_ORACLE
    @pytest.mark.parametrize("d", [40, 100])
    def test_split_tiles_stay_within_the_oracle_bound(self, d, monkeypatch):
        # no ladder at these sizes splits at the module's window; at a window
        # of 0 every stage with m_max >= 10 splits into several tiles
        monkeypatch.setattr(crossing, "COUNT_TILE_WINDOW", 0.0)
        tiles, tiled = [], []
        tile_sum, tiled_sum = crossing._tile_sum, crossing._tiled_sum

        def record_tile(*args):
            tiles.append(args[0].size)
            return tile_sum(*args)

        def record_stage(qs, *args):
            tiled.append(qs.size - 1)
            return tiled_sum(qs, *args)

        monkeypatch.setattr(crossing, "_tile_sum", record_tile)
        monkeypatch.setattr(crossing, "_tiled_sum", record_stage)
        for S in (exchangeable(d, 0.3), np.eye(d)):
            model = exceedance.correlation_model(S)
            bounds = [*_reference_bounds(d), _steep_bounds(d)]
            for bv, plan in zip(bounds, crossing._stage_plans(bounds, model)):
                tiles.clear()
                tiled.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    self._check_loop(d, model, bv, plan)
                assert set(plan.m_maxes[plan.m_maxes >= 10].tolist()) <= set(tiled)
                assert len(tiles) >= 4 * len(tiled) > 0

    def test_d2000_ladder_in_little_memory(self):
        # one (m_max + 1)^2 table of the old count step took 32 MB here; the
        # loop keeps O(d) per stage and one block of log factors
        d = 2000
        model = exceedance.correlation_model(np.eye(d))
        ladder = _reference_bounds(d)[0]
        [plan] = crossing._stage_plans([ladder], model)
        tracemalloc.start()
        try:
            p, table = crossing.crossing_pvalue(ladder, model, return_table=True, plan=plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert 0.0 < p < 1.0 and np.all(np.isfinite(table.leaks))


def _tail_bounds(d, *ts):
    b = np.full(d, np.inf)
    b[d - len(ts):] = ts
    return BoundaryVector(b=b)


class TestStagePlans:
    """``_stage_plans`` builds the stage plans of many sets on one model with
    one pass of the pair series over their concatenated stages; each set's
    p-value, leaks and flags equal its own ``crossing_pvalue`` call."""

    @staticmethod
    def _bounds(d):
        ladder, deep = _reference_bounds(d)
        return [ladder,
                BoundaryVector(b=np.full(d, np.inf)),            # no stage
                _tail_bounds(d, 1.0, 26.0, 27.5, 27.6),         # gamma clamped
                _tail_bounds(d, 0.0, 1.0, 2.0),                 # crossed at t = 0
                deep,                                           # lambda underflow
                _tail_bounds(d, 1.0, 26.8, 27.2, 27.6),         # pair tails underflow
                _tail_bounds(d, 1.0, 2.0, 3.0, 4.0)]

    @pytest.mark.parametrize("perfect", (False, True))
    @pytest.mark.parametrize("stages_per_call", (1, 3, 4, 1000))
    def test_plans_equal_per_set_calls(self, perfect, stages_per_call, rng, monkeypatch):
        # 3 and 4 stages per call put block ends between sets and inside them
        S = rand_corr(12, rng)
        model = exceedance.correlation_model(_with_perfect_pair(S) if perfect else S)
        monkeypatch.setattr(crossing, "PAIR_BLOCK_ENTRIES",
                            stages_per_call * model.pair_summary.rhos.size)
        bounds = self._bounds(12)
        want = [crossing.crossing_pvalue(b, model, return_table=True) for b in bounds]
        calls = record_series(monkeypatch)
        plans = crossing._stage_plans(bounds, model)
        stages = sum(plan.thresholds.size for plan in plans if plan.lam is not None)
        assert stages == 6 + 4 + 4 + 4 + 4
        full, rest = divmod(stages, stages_per_call)
        assert [t for t, _ in calls] == [stages_per_call] * full + [rest] * (rest > 0)
        for b, plan, (p, table) in zip(bounds, plans, want):
            got_p, got = crossing.crossing_pvalue(b, model, return_table=True, plan=plan)
            assert got_p == p
            np.testing.assert_array_equal(got.leaks, table.leaks)
            assert got.diagnostics == table.diagnostics
        flags = [set(table.diagnostics) for _, table in want]
        assert flags[0] == set() and flags[-1] == set()
        assert {"lambda_underflow", "pair_tail_underflow"} <= flags[4]
        assert "pair_tail_underflow" in flags[5]
        if not perfect:
            assert "ebb_gamma_clamped" in flags[2]

    @staticmethod
    def _perfect_column(thresholds, first, sf, lam, model):
        """The pair fractions and pair-tail underflows with the perfect
        pairs' tails 2 sf(t) taken as one more column beside the atoms',
        divided and clipped as theirs are: the reference for taking their
        ratio from the stage's lam."""
        pairs = model.pair_summary
        n, d = pairs.rhos.size, model.d
        tails = np.column_stack((gauss.bivar_abs_tail_many(thresholds, pairs.rhos)
                                 .reshape(thresholds.size, n), 2.0 * sf))
        np.clip(tails, 0.0, 1.0, out=tails)
        prev = np.vstack((np.ones(n + 1), tails[:-1]))
        prev[first] = 1.0
        with np.errstate(invalid="ignore", divide="ignore"):
            ratios = tails / prev
        bad = prev < np.finfo(float).tiny
        lam2 = lam[:, None] * lam[:, None]
        ratios[bad] = np.broadcast_to(lam2, ratios.shape)[bad]
        np.clip(ratios, 0.0, 1.0, out=ratios)
        ratios -= lam2
        total = np.vecdot(ratios[:, :n], pairs.counts) + pairs.n_perfect * ratios[:, n]
        return 2.0 * total / (d * (d - 1) * lam * (1.0 - lam)), bad.any(axis=1)

    @pytest.mark.parametrize("atoms", (True, False))
    def test_perfect_pairs_read_the_stage_lambda(self, atoms, monkeypatch):
        # Z_0 = Z_1, Z_2 = Z_3 and Z_4 = -Z_5: with atoms, the three pairs of
        # coordinates at exchangeable 0.3; without, all six share one |Z|
        A = np.kron(np.eye(3), np.ones((2, 1)))
        A[5, 2] = -1.0
        model = exceedance.correlation_model(A @ exchangeable(3, 0.3 if atoms else 1.0) @ A.T)
        pairs = model.pair_summary
        assert (pairs.n_perfect, pairs.rhos.size) == ((3, 1) if atoms else (15, 0))
        fractions = crossing._pair_fractions
        seen = []

        def record(thresholds, first, sf, sf_prev, lam, model):
            out = fractions(thresholds, first, sf, sf_prev, lam, model)
            seen.append(((thresholds, first, sf, lam), out))
            return out

        monkeypatch.setattr(crossing, "_pair_fractions", record)
        # the last set's tail at 37.53 is below the smallest normal double,
        # and twice it is not
        bounds = self._bounds(6) + [_tail_bounds(6, 1.0, 37.53, 37.6)]
        calls = record_series(monkeypatch)
        plans = crossing._stage_plans(bounds, model)
        assert len(calls) == atoms
        [((thresholds, first, sf, lam), (frac, under))] = seen
        want_frac, want_under = self._perfect_column(thresholds, first, sf, lam, model)
        assert np.all(frac == want_frac)
        assert np.all(under == want_under)
        assert under.any() and not under.all()
        m_maxes = np.concatenate([plan.m_maxes for plan in plans if plan.lam is not None])
        gamma, _ = ebb.match_gamma(lam, want_frac, np.maximum(m_maxes, 1))
        assert np.all(np.concatenate([plan.gamma for plan in plans if plan.lam is not None])
                      == gamma)
        flags = ["pair_tail_underflow" in plan.flags for plan in plans]
        assert flags[4] and not flags[0] and not flags[6]   # the deep ladder and two others
        assert flags[7] == atoms                # an atom's tail there is subnormal

    @staticmethod
    def _replicates(n):
        """n null draws on calibrate's omnibus design: d = 100, ten blocks
        of exchangeable 0.5."""
        S = np.kron(np.eye(10), exchangeable(10, 0.5))
        L = np.linalg.cholesky(S)
        rng = np.random.default_rng(20)
        return exceedance.correlation_model(S), [setstats.ZVector(L @ rng.standard_normal(100))
                                                 for _ in range(n)]

    @pytest.mark.parametrize("stages_per_call", (None, 25))
    def test_a_list_shares_the_series_calls(self, stages_per_call, monkeypatch):
        model, Zs = self._replicates(20)
        if stages_per_call:
            # two atoms, 0 and 0.5
            monkeypatch.setattr(crossing, "PAIR_BLOCK_ENTRIES", 2 * stages_per_call)
        recursion = crossing.crossing_pvalue
        seen = []

        def record(bounds, *args, **kwargs):
            out = recursion(bounds, *args, **kwargs)
            seen.append((bounds, out))
            return out

        monkeypatch.setattr(crossing, "crossing_pvalue", record)
        calls = record_series(monkeypatch)
        # a statistic of zero takes p = 1 without a recursion
        outcomes = [o for o in crossing.pvalue("GBJ", Zs, model) if o.statistic > 0.0]
        assert len(seen) == len(outcomes) > 1
        stages = sum(crossing._stages(bounds)[0].size for bounds, _ in seen)
        if stages_per_call is None:
            assert [t for t, _ in calls] == [stages]
        else:
            full, rest = divmod(stages, stages_per_call)
            assert [t for t, _ in calls] == [stages_per_call] * full + [rest] * (rest > 0)
        for (bounds, (p, table)), outcome in zip(seen, outcomes):
            own_p, own = recursion(bounds, model, return_table=True)
            assert p == own_p
            np.testing.assert_array_equal(table.leaks, own.leaks)
            assert table.diagnostics == own.diagnostics
            assert outcome.pvalue == min(1.0, max(crossing.PVALUE_FLOOR, own_p))
        # a list of one set takes the calls of that set's own recursion
        seen.clear()
        calls.clear()
        crossing.pvalue("GBJ", [Zs[0]], model)
        [(bounds, _)] = seen
        one = [t for t, _ in calls]
        calls.clear()
        recursion(bounds, model)
        assert one == [t for t, _ in calls]


class TestExactSmall:
    def test_d2_identity_inclusion_exclusion(self):
        b1, b2 = 1.0, 2.0
        bv = BoundaryVector(b=np.array([b1, b2]))
        got = crossing.exact_small_pvalue(bv, np.eye(2))

        def box(u1, u2):
            p1 = 1 - 2 * gauss.norm_sf(u1)
            p2 = 1 - 2 * gauss.norm_sf(u2)
            return p1 * p2

        want = 1.0 - (box(b1, b2) + box(b2, b1) - box(b1, b1))
        assert got == pytest.approx(want, abs=1e-10)

    def test_vacuous_bounds(self):
        bv = BoundaryVector(b=np.full(4, np.inf))
        assert crossing.exact_small_pvalue(bv, np.eye(4)) == 0.0

    def test_equal_bounds_identity_closed_form(self):
        for d in (2, 3, 5):
            t = 1.9
            bv = BoundaryVector(b=np.full(d, t))
            want = 1.0 - (1.0 - 2 * gauss.norm_sf(t)) ** d
            got = crossing.exact_small_pvalue(bv, np.eye(d))
            assert got == pytest.approx(want, abs=1e-7)

    def test_matches_monte_carlo_correlated(self, rng):
        d = 5
        Sigma = rand_corr(d, rng, factor=2)
        bounds = np.full(d, np.inf)
        bounds[2:] = np.sort(rng.uniform(1.2, 2.8, size=3))
        bv = BoundaryVector(b=bounds)
        got = crossing.exact_small_pvalue(bv, Sigma)
        n = 2_000_000
        Z = rng.multivariate_normal(np.zeros(d), Sigma, size=n)
        srt = np.sort(np.abs(Z), axis=1)
        mc = float(np.mean(np.any(srt > bounds[None, :], axis=1)))
        se = math.sqrt(mc * (1 - mc) / n)
        assert abs(got - mc) < 3 * se + 1e-5

    def test_seven_coordinates_against_monte_carlo(self, rng):
        d = 7
        Sigma = rand_corr(d, rng)
        bounds = np.full(d, np.inf)
        bounds[4:] = np.sort(rng.uniform(1.4, 2.9, size=3))
        got = crossing.exact_small_pvalue(BoundaryVector(b=bounds), Sigma,
                                          npts=4096, nshift=6)
        n = 1_000_000
        Z = rng.multivariate_normal(np.zeros(d), Sigma, size=n)
        srt = np.sort(np.abs(Z), axis=1)
        mc = float(np.mean(np.any(srt > bounds[None, :], axis=1)))
        se = math.sqrt(mc * (1 - mc) / n)
        assert abs(got - mc) < 3 * se + 1e-4

    def test_each_distinct_integral_computed_once(self, monkeypatch):
        # values frozen from the oracle that integrated every permutation
        keys = []
        integral = gauss._lattice_integral

        def recorded(L, a, b, npts, nshift):
            keys.append((L.tobytes(), a.tobytes(), b.tobytes()))
            return integral(L, a, b, npts, nshift)
        monkeypatch.setattr(gauss, "_lattice_integral", recorded)
        # the GBJ rejection regions these were frozen on (alpha 0.005 and
        # 0.05), pinned: the lattice integral moves by 2e-4 relative when a
        # bound moves by one ulp
        cases = ((exchangeable(5, 0.5), ["inf", "inf", "inf", "0x1.6ae9aa6415359p+1",
                                         "0x1.b540c6ec3ab83p+1"], 0.0043660256910665884),
                 (rand_corr(4, np.random.default_rng(3)),
                  ["inf", "inf", "0x1.e1a09d5e73813p+0", "0x1.56aa315b7a119p+1"],
                  0.04847622796418771))
        for Sigma, bounds, want in cases:
            keys.clear()
            bv = BoundaryVector(b=np.array([float.fromhex(b) for b in bounds]))
            assert crossing.exact_small_pvalue(bv, Sigma) == want
            assert keys and len(set(keys)) == len(keys)

    def test_size_limit(self):
        with pytest.raises(SizeError):
            crossing.exact_small_pvalue(BoundaryVector(b=np.full(9, 2.0)), np.eye(9))


class TestPvalue:
    def test_pvalue_loads_neither_scipy_stats_nor_integrate(self):
        # a fresh interpreter: pytest itself may have loaded both modules
        import gbjtest
        src = os.path.dirname(os.path.dirname(os.path.abspath(gbjtest.__file__)))
        code = ("import sys; import numpy as np; import gbjtest; "
                "S = np.full((5, 5), 0.3); np.fill_diagonal(S, 1.0); "
                "z = gbjtest.ZVector(np.array([2.5, 1.0, 0.3, -1.2, 3.1])); "
                "gbjtest.pvalue('GBJ', z, S); "
                "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=120)
        assert out.stdout.strip() == "[]"

    def test_zero_statistic_pvalue_one(self):
        Z = setstats.ZVector(np.array([0.1, 0.2, 0.3, 0.4]))
        out = crossing.pvalue("GBJ", Z, np.eye(4))
        assert out.statistic == 0.0
        assert out.pvalue == 1.0

    def test_gbj_equals_bj_identity(self, rng):
        for d in (5, 20):
            for _ in range(10):
                Z = setstats.ZVector(rng.standard_normal(d) * 1.6)
                a = crossing.pvalue("GBJ", Z, np.eye(d))
                b = crossing.pvalue("BJ", Z, np.eye(d))
                assert abs(a.pvalue - b.pvalue) <= 1e-8

    def test_pvalue_in_unit_interval_and_floored(self, rng):
        d = 6
        Sigma = exchangeable(d, 0.4)
        Z = setstats.ZVector(np.array([9.0, 8.5, 7.0, 1.0, 0.5, 0.2]))
        out = crossing.pvalue("GBJ", Z, Sigma)
        assert crossing.PVALUE_FLOOR <= out.pvalue <= 1.0

    def test_minp_single_coordinate_two_sided(self):
        out = crossing.pvalue("MinP", setstats.ZVector(np.array([2.3])), np.eye(1))
        assert out.pvalue == pytest.approx(2 * gauss.norm_sf(2.3), rel=1e-10)

    def test_minp_all_zero_observations(self, monkeypatch):
        # g = 0 binds |Z|_(d) at zero, which S(0) = d crosses surely; the
        # zero-statistic rule gives that p = 1 without the recursion
        assert crossing.crossing_pvalue(
            crossing.invert_bounds("MinP", 0.0, 4, None), np.eye(4)) == 1.0
        monkeypatch.setattr(crossing, "crossing_pvalue", None)
        out = crossing.pvalue("MinP", setstats.ZVector(np.zeros(4)), np.eye(4))
        assert out.statistic == 0.0
        assert out.pvalue == 1.0

    def test_minp_single_coordinate_bound_is_g(self):
        bv = crossing.invert_bounds("MinP", 2.3, 1, None)
        assert bv.b.tolist() == [2.3] and bv.diagnostics == ()
        Zs = [setstats.ZVector(np.array([z])) for z in (2.3, -0.4, 0.0)]
        batch = crossing.pvalue("MinP", Zs, np.eye(1))
        for Z, got in zip(Zs, batch):
            want = crossing.pvalue("MinP", Z, np.eye(1))
            assert (got.statistic, got.pvalue) == (want.statistic, want.pvalue)
        assert batch[2].pvalue == 1.0


    def test_tracks_exact_at_strong_exchangeable_correlation(self):
        # at rho = 0.5 the EBB recursion carries a systematic upward bias of
        # roughly a third; it must stay within that envelope and keep order
        d = 8
        Sigma = exchangeable(d, 0.5)
        pairs = []
        for alpha in (0.1, 0.01, 0.001):
            bv = crossing.rejection_region("GBJ", alpha, d, Sigma)
            pa = crossing.crossing_pvalue(bv, Sigma)
            pe = crossing.exact_small_pvalue(bv, Sigma)
            assert pa == pytest.approx(alpha, rel=1e-4)
            assert abs(pa - pe) / pe < 0.40
            pairs.append((pa, pe))
        # ordering preserved
        pas, pes = zip(*pairs)
        assert np.all(np.diff(pas) < 0) and np.all(np.diff(pes) < 0)

    def test_moderate_correlation_tracks_exact_tightly(self, rng):
        d = 6
        Sigma = rand_corr(d, rng, factor=6)
        bv = crossing.rejection_region("GBJ", 0.005, d, Sigma)
        pa = crossing.crossing_pvalue(bv, Sigma)
        pe = crossing.exact_small_pvalue(bv, Sigma)
        assert abs(pa - pe) <= max(0.02 * pe, 5e-4)


def outcome_fields(o):
    return o.statistic, o.achieving_index, o.diagnostics, o.pvalue


class TestPvalueList:
    """``pvalue`` over a list of sets: one inversion call per list, and each
    set's outcome that of its own call.  A list of one set gives the scalar
    call's outcome bit for bit.  In a longer list the p-values may differ
    from the scalar calls' in the last bits, as the batched bounds of
    ``invert_bounds`` do (the objective's array kernels round by array
    size), and are held to 1e-12 relative."""

    @staticmethod
    def count_inversions(monkeypatch):
        calls = []
        invert = crossing.invert_bounds

        def record(method, g, *args, **kwargs):
            calls.append(np.size(g))
            return invert(method, g, *args, **kwargs)

        monkeypatch.setattr(crossing, "invert_bounds", record)
        return calls

    @pytest.mark.parametrize("d", [5, 20, 100])
    def test_list_matches_scalar_calls(self, rng, d, monkeypatch):
        Sigma = rand_corr(d, rng, factor=1)
        model = exceedance.correlation_model(Sigma)
        L = np.linalg.cholesky(Sigma)
        zs = [L @ rng.standard_normal(d) * 1.6 for _ in range(4)]
        zs.insert(1, np.full(d, 0.05))                  # zero statistic but MinP's
        zs.insert(3, np.zeros(d))                       # zero statistic for all five
        zs[4][0] = 6.0
        Zs = [setstats.ZVector(z) for z in zs]
        Zs.insert(2, setstats.ZVector(np.ones(d + 1)))  # fails: wrong dimension
        for method in setstats.ALL_METHODS:
            scalar = []
            for Z in Zs:
                try:
                    scalar.append(crossing.pvalue(method, Z, model))
                except DomainError as err:
                    scalar.append(err)
            calls = self.count_inversions(monkeypatch)
            batch = crossing.pvalue(method, Zs, model)
            monkeypatch.undo()
            assert len(calls) == 1, method
            outcomes = [o for o in scalar if not isinstance(o, DomainError)]
            assert calls[0] == sum(o.statistic > 0.0 for o in outcomes)
            assert len(batch) == len(Zs)
            for Z, got, want in zip(Zs, batch, scalar):
                if isinstance(want, DomainError):
                    assert isinstance(got, DomainError) and str(got) == str(want)
                    continue
                [one] = crossing.pvalue(method, [Z], model)
                assert outcome_fields(one) == outcome_fields(want), method
                assert outcome_fields(got)[:3] == outcome_fields(want)[:3], method
                assert got.pvalue == pytest.approx(want.pvalue, rel=1e-12, abs=0), method
            assert batch[4].pvalue == 1.0

    def test_inversion_failure_stays_with_its_set(self, monkeypatch):
        # once a set's bounds are inverted, its recursion raises nothing: the
        # per-set failure after the statistic is the inversion's
        d = 8
        Sigma = exchangeable(d, 0.3)
        Zs = [setstats.ZVector(np.linspace(-1.0, s, d)) for s in (3.0, 3.5, 4.0)]
        want = [crossing.pvalue("GHC", Z, Sigma) for Z in (Zs[0], Zs[2])]
        poisoned = crossing.pvalue("GHC", Zs[1], Sigma).statistic
        invert = crossing.invert_bounds

        def failing(method, gs, *args):
            return [NumericalError("injected failure") if g == poisoned else bounds
                    for g, bounds in zip(gs, invert(method, gs, *args))]

        monkeypatch.setattr(crossing, "invert_bounds", failing)
        got = crossing.pvalue("GHC", Zs, Sigma)
        assert isinstance(got[1], NumericalError)
        for o, w in zip((got[0], got[2]), want):
            assert o.pvalue == pytest.approx(w.pvalue, rel=1e-12, abs=0)
        with pytest.raises(NumericalError, match="injected"):
            crossing.pvalue("GHC", Zs[1], Sigma)

    def test_empty_list(self, monkeypatch):
        calls = self.count_inversions(monkeypatch)
        assert crossing.pvalue("GBJ", [], np.eye(3)) == []
        assert calls == []


def _block(d: int) -> np.ndarray:
    """Blocks of five (the last may be shorter), exchangeable 0.5 within."""
    S = np.eye(d)
    for lo in range(0, d, 5):
        S[lo:lo + 5, lo:lo + 5] = exchangeable(min(5, d - lo), 0.5)
    return S


ONE_PASS_SIGMAS = {
    "identity": lambda d, rng: np.eye(d),
    "exchangeable": lambda d, rng: exchangeable(d, 0.3),
    "block": lambda d, rng: _block(d),
    "two_factor": lambda d, rng: _two_factor(d, 0.6, rng),
}


class TestPvaluesOnePass:
    """``_pvalues`` over all five methods gives, per method, the outcomes of
    one ``pvalue`` call on the sets still live at that method, bit for bit:
    statistic, p-value, achieving index and flags, or the error's type and
    message.  A set whose method fails carries that error through every
    later method."""

    @staticmethod
    def same(got, want) -> bool:
        if isinstance(want, GBJError):
            return type(got) is type(want) and str(got) == str(want)
        return got == want

    @pytest.mark.parametrize("kind", sorted(ONE_PASS_SIGMAS))
    @pytest.mark.parametrize("d", [2, 5, 20, 100])
    def test_matches_per_method_calls(self, kind, d, rng, monkeypatch):
        model = exceedance.correlation_model(ONE_PASS_SIGMAS[kind](d, rng))
        L = np.linalg.cholesky(model.matrix)
        zs = [L @ rng.standard_normal(d) * 1.6 for _ in range(3)]
        zs[0][0] = 4.0                                  # GBJ fails on this set
        zs[2][0] = 6.0
        zs.insert(1, np.full(d, 0.05))                  # zero statistic but MinP's
        zs.insert(3, np.zeros(d))                       # zero statistic for all five
        Zs = [setstats.ZVector(z) for z in zs]
        Zs.append(setstats.ZVector(np.ones(d + 1)))     # fails: wrong dimension
        methods = setstats.ALL_METHODS

        for method in methods:
            one = crossing._pvalues(methods, [Zs[4]], model)[method][0]
            assert one == crossing.pvalue(method, Zs[4], model), method

        poisoned = crossing.pvalue(setstats.GBJ, Zs[0], model).statistic
        invert = crossing.invert_bounds

        def failing(method, gs, *args):
            return [NumericalError("injected failure")
                    if method == setstats.GBJ and g == poisoned else bounds
                    for g, bounds in zip(gs, invert(method, gs, *args))]

        monkeypatch.setattr(crossing, "invert_bounds", failing)
        got = crossing._pvalues(methods, Zs, model)
        live = list(range(len(Zs)))
        for i, method in enumerate(methods):
            want = crossing.pvalue(method, [Zs[k] for k in live], model)
            assert all(self.same(got[method][k], w) for k, w in zip(live, want)), method
            failed = [k for k in live if isinstance(got[method][k], GBJError)]
            for k in failed:
                assert all(got[m][k] is got[method][k] for m in methods[i + 1:])
            live = [k for k in live if k not in failed]
        assert isinstance(got[setstats.GBJ][0], NumericalError)
        assert isinstance(got[setstats.GBJ][-1], DomainError)
        assert live == [1, 2, 3, 4]
        assert got[setstats.GBJ][1].statistic == 0.0 < got[setstats.MINP][1].statistic
        assert got[setstats.MINP][3].pvalue == 1.0

    def test_one_series_pass_for_all_methods(self, monkeypatch):
        # the five methods' stages fill each call of the pair series in turn,
        # where a call per method would take five
        Sigma = _distinct_corr(40)
        Z = setstats.ZVector(np.linspace(-1.0, 4.0, 40))
        calls = record_series(monkeypatch)
        crossing._pvalues(setstats.ALL_METHODS, [Z], exceedance.correlation_model(Sigma))
        stages = sum(n for n, _ in calls)
        rows = crossing.PAIR_BLOCK_ENTRIES // 780
        assert [n for n, _ in calls] == [min(rows, stages - lo) for lo in range(0, stages, rows)]
        assert len(calls) < 5


class TestRejectionRegion:
    def test_minp_identity_closed_form(self):
        d = 20
        alpha = 0.01
        bv = crossing.rejection_region("MinP", alpha, d, np.eye(d))
        per = 1.0 - (1.0 - alpha) ** (1.0 / d)
        want = ndtri(1.0 - per / 2.0)
        assert bv.b[-1] == pytest.approx(want, abs=1e-4)

    def test_round_trip_all_methods(self):
        d = 10
        Sigma = exchangeable(d, 0.3)
        for method in ("GBJ", "BJ", "HC", "GHC", "MinP"):
            bv = crossing.rejection_region(method, 0.01, d, Sigma)
            p = crossing.crossing_pvalue(bv, Sigma)
            assert abs(p - 0.01) <= 1e-4 * 0.01

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            crossing.rejection_region("GBJ", 0.0, 5, np.eye(5))

    def test_searched_point_is_not_recomputed(self, monkeypatch):
        # the root search returns a point it has evaluated; its bounds and
        # p-value are reused, so no bounds reach the recursion twice
        evaluated = []
        recursion = crossing.crossing_pvalue

        def record(bounds, Sigma, return_table=False):
            evaluated.append(bounds.b.copy())
            return recursion(bounds, Sigma, return_table)

        monkeypatch.setattr(crossing, "crossing_pvalue", record)
        bv = crossing.rejection_region("GBJ", 0.01, 10, exchangeable(10, 0.3))
        assert len({tuple(b) for b in evaluated}) == len(evaluated)
        assert any(np.array_equal(bv.b, b) for b in evaluated)


    @pytest.mark.parametrize("method, ceiling", [("HC", 9), ("GHC", 8), ("GBJ", 6)])
    def test_pvalue_evaluations_per_region(self, method, ceiling, monkeypatch):
        # a x1.6 ladder from g = 1 that also evaluated g ~ 0 and bracketed
        # the root search from there took 18, 18 and 9
        calls = []
        recursion = crossing.crossing_pvalue

        def record(bounds, Sigma, return_table=False):
            calls.append(bounds)
            return recursion(bounds, Sigma, return_table)

        monkeypatch.setattr(crossing, "crossing_pvalue", record)
        Sigma = exchangeable(20, 0.3)
        bv = crossing.rejection_region(method, 0.01, 20, Sigma)
        assert len(calls) <= ceiling
        assert recursion(bv, Sigma) == pytest.approx(0.01, rel=crossing.REGION_REL_TOL)

    def test_first_rung_below_alpha_still_checks_reachability(self, monkeypatch):
        # p at g = 1 is already below alpha, so p at g ~ 0 is evaluated, and
        # it is below alpha too
        ps = []
        recursion = crossing.crossing_pvalue

        def record(bounds, Sigma, return_table=False):
            ps.append(recursion(bounds, Sigma, return_table))
            return ps[-1]

        monkeypatch.setattr(crossing, "crossing_pvalue", record)
        with pytest.raises(NumericalError, match="not reachable"):
            crossing.rejection_region("GBJ", 0.95, 6, np.eye(6))
        assert len(ps) == 2
        assert max(ps) < 0.95

    def test_alpha_array_shares_one_search(self, monkeypatch):
        d = 20
        Sigma = exchangeable(d, 0.3)
        alphas = np.array([0.01, 0.0023])
        recursion = crossing.crossing_pvalue
        for method in setstats.ALL_METHODS:
            single = [crossing.rejection_region(method, a, d, Sigma) for a in alphas]
            evaluated = []

            def record(bounds, Sigma, return_table=False):
                evaluated.append(tuple(bounds.b))
                return recursion(bounds, Sigma, return_table)

            monkeypatch.setattr(crossing, "crossing_pvalue", record)
            both = crossing.rejection_region(method, alphas, d, Sigma)
            monkeypatch.undo()
            # no g reaches the recursion twice, across the two searches too
            assert len(set(evaluated)) == len(evaluated), method
            assert len(both) == alphas.size
            for got, want in zip(both, single):
                fin = np.isfinite(want.b)
                assert np.array_equal(np.isfinite(got.b), fin)
                np.testing.assert_allclose(got.b[fin], want.b[fin], rtol=1e-12, atol=0,
                                           err_msg=method)

    def test_alpha_array_raises_the_first_failure(self):
        with pytest.raises(NumericalError) as scalar:
            crossing.rejection_region("GBJ", 0.95, 6, np.eye(6))
        with pytest.raises(NumericalError) as batch:
            crossing.rejection_region("GBJ", np.array([0.05, 0.95]), 6, np.eye(6))
        assert "not reachable" in str(scalar.value)
        assert str(batch.value) == str(scalar.value)
        with pytest.raises(DomainError):
            crossing.rejection_region("GBJ", np.array([0.05, 1.0]), 6, np.eye(6))


def test_region_serialization_format():
    d = 6
    bv = crossing.rejection_region("MinP", 0.05, d, np.eye(d))
    text = crossing.region_to_tsv(bv, "MinP", 0.05)
    lines = text.strip().split("\n")
    assert lines[0] == "index\tbound\tmethod\talpha"
    assert len(lines) == d + 1
    assert lines[1].split("\t")[1] == "inf"
    last = lines[-1].split("\t")
    assert last[0] == str(d) and last[2] == "MinP" and float(last[3]) == 0.05
