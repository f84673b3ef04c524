"""Tests for Wald summaries, interval/region inversion, and point estimates."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import chi2, norm

import metaperm.estimators
import metaperm.inference
import metaperm.permutation
from metaperm import (
    Dataset,
    NonConvergenceError,
    PermutationPlan,
    SingularInformationError,
    confidence_interval,
    confidence_region,
    fit_marginal_null,
    fit_ml,
    joint_permutation_test,
    marginal_permutation_test,
    median_unbiased_estimate,
    overall_null_test,
    wald_inference,
)
from metaperm.inference import XTOL, _chi2_ppf, _chi2_sf, ndtri


@pytest.fixture(scope="module")
def equal_var_fit():
    """Homogeneous equal-variance studies with closed-form Wald quantities."""
    data = Dataset(
        Y=[[0.1], [0.2], [0.3], [0.4]],
        S=np.full((4, 1, 1), 0.04),
        ids=[f"s{i}" for i in range(4)],
    )
    return fit_ml(data)


class TestWaldInference:
    def test_closed_form_scalar_case(self, equal_var_fit):
        # tau is zero, so the information is sum(1/s2) = 100: the
        # estimate is the plain mean and se = 0.1 exactly
        assert equal_var_fit.het.tau[0] == 0.0
        w = wald_inference(equal_var_fit, alpha=0.05, mu_null=[0.0])
        z = norm.ppf(0.975)
        assert w.estimate[0] == pytest.approx(0.25, rel=1e-12)
        assert w.se[0] == pytest.approx(0.1, rel=1e-10)
        assert w.lower[0] == pytest.approx(0.25 - z * 0.1, rel=1e-10)
        assert w.upper[0] == pytest.approx(0.25 + z * 0.1, rel=1e-10)
        assert w.chi2_statistic == pytest.approx(0.25**2 * 100.0, rel=1e-10)
        assert w.chi2_threshold == pytest.approx(chi2.ppf(0.95, df=1), rel=1e-12)
        assert w.p_value == pytest.approx(chi2.sf(6.25, df=1), rel=1e-10)
        assert w.reject

    def test_mu_null_is_a_copy(self, bivariate5):
        # a summary must not change when the caller later reuses its array
        mu = np.array([0.1, -0.2])
        w = wald_inference(fit_ml(bivariate5), mu_null=mu)
        mu[:] = 9.0
        assert w.mu_null.tolist() == [0.1, -0.2]
        assert not w.mu_null.flags.writeable

    def test_covers_and_ellipsoid(self, equal_var_fit):
        w = wald_inference(equal_var_fit, alpha=0.05)
        assert w.covers([0.25]).all()
        assert not w.covers([0.5]).any()
        # ellipsoid: accepts iff 100 * d^2 <= 3.8415, so |d| <= 0.196
        assert w.ellipsoid_accepts([0.44])
        assert not w.ellipsoid_accepts([0.46])

    def test_matches_information_inverse(self, bivariate5):
        fit = fit_ml(bivariate5)
        w = wald_inference(fit, alpha=0.10)
        cov = np.linalg.inv(fit.information)
        np.testing.assert_allclose(w.se, np.sqrt(np.diag(cov)), rtol=1e-10)
        np.testing.assert_allclose(
            w.upper - w.lower, 2 * norm.ppf(0.95) * w.se, rtol=1e-12
        )
        assert w.covers(fit.mu).all()

    def test_requires_converged_fit(self, equal_var_fit):
        bad = dataclasses.replace(equal_var_fit, converged=False)
        with pytest.raises(ValueError, match="converged"):
            wald_inference(bad)

    def test_rejects_bad_alpha_and_null(self, equal_var_fit):
        with pytest.raises(ValueError, match="alpha"):
            wald_inference(equal_var_fit, alpha=0.0)
        with pytest.raises(ValueError, match="length"):
            wald_inference(equal_var_fit, mu_null=[0.0, 0.0])

    def test_singular_information_rejected(self, bivariate5):
        fit = fit_ml(bivariate5)
        rank1 = dataclasses.replace(fit, information=np.ones((2, 2)))
        with pytest.raises(SingularInformationError):
            wald_inference(rank1)


class TestWithoutScipyStats:
    def test_import_loads_no_scipy_stats(self):
        # a fresh interpreter, so modules imported by the tests do not count
        src = os.path.dirname(os.path.dirname(metaperm.inference.__file__))
        code = (
            "import sys, metaperm, metaperm.cli; "
            "print([m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_quantiles_equal_scipy_stats(self):
        # alphas near 0 make 1 - alpha round to 1 (an infinite quantile),
        # alphas near 1 put the chi-square quantile near 0
        alphas = [
            *np.linspace(0.0005, 0.9995, 1000),
            5e-324, 1e-300, 1e-17, 2.0 ** -53, 1e-16, 0.05, 0.5, 1 - 1e-16,
            float(np.nextafter(1.0, 0.0)),
        ]
        for alpha in alphas:
            assert ndtri(1.0 - alpha / 2.0) == norm.ppf(1.0 - alpha / 2.0)
            for df in range(1, 6):
                assert _chi2_ppf(1.0 - alpha, df) == chi2.ppf(1.0 - alpha, df=df)

    def test_upper_tail_equals_scipy_stats(self):
        xs = [
            0.0, -0.0, -1e-300, -5e-324, -1.0, np.inf, np.nan,
            5e-324, 1e-300, 1e-10, 0.5, 3.841458820694124, 20.0, 1e3, 1e5,
            *np.linspace(0.01, 30.0, 300),
        ]
        for x in xs:
            for df in range(1, 6):
                got, want = _chi2_sf(x, df), float(chi2.sf(x, df=df))
                assert type(got) is float
                assert got == want or (np.isnan(got) and np.isnan(want))


class TestOverallNullTest:
    def test_is_joint_test_at_zero(self, bivariate5):
        plan = PermutationPlan.exhaustive()
        a = overall_null_test(bivariate5, plan=plan, stat="moment")
        b = joint_permutation_test(bivariate5, [0.0, 0.0], plan=plan, stat="moment")
        assert a.p_value == b.p_value
        assert np.array_equal(a.distribution.statistics, b.distribution.statistics)
        assert np.array_equal(a.mu_null, np.zeros(2))


@pytest.fixture(scope="module")
def u10_plan():
    return PermutationPlan.random(n_draws=150, seed=3)


@pytest.fixture(scope="module")
def u10_interval(univariate10, u10_plan):
    return confidence_interval(univariate10, 0, alpha=0.05, plan=u10_plan)


class TestMedianUnbiasedEstimate:
    def test_diagnostics_and_bracket(self, univariate10, u10_plan):
        est, diag = median_unbiased_estimate(
            univariate10, 0, plan=u10_plan, full_output=True
        )
        assert diag["crossed"]
        lo, hi = diag["bracket"]
        assert lo == pytest.approx(diag["anchor"] - 4 * diag["anchor_se"], rel=1e-12)
        assert hi == pytest.approx(diag["anchor"] + 4 * diag["anchor_se"], rel=1e-12)
        assert lo < est < hi
        assert abs(est - diag["anchor"]) < diag["anchor_se"]
        assert len(diag["trace"]) >= 3

    def test_trace_records_each_probe_p_value(self, univariate10, u10_plan):
        # a random-plan p-value is (1 + c) / (B + 1) for a count c of
        # permutation values at or above the observed one
        _, diag = median_unbiased_estimate(univariate10, 0, plan=u10_plan, full_output=True)
        B = u10_plan.n_draws
        for _, p in diag["trace"]:
            c = round(p * (B + 1)) - 1
            assert 0 <= c <= B
            assert p == (1 + c) / (B + 1)

    def test_deterministic(self, univariate10, u10_plan):
        a = median_unbiased_estimate(univariate10, 0, plan=u10_plan)
        b = median_unbiased_estimate(univariate10, 0, plan=u10_plan)
        assert a == b


class TestConfidenceInterval:
    @pytest.mark.parametrize(
        "name, n_draws, seed", [("univariate10", 150, 3), ("bivariate12", 100, 20240101)]
    )
    def test_invert_marginal_test(self, request, name, n_draws, seed):
        # the interval must agree with the pointwise test under the same
        # plan: each endpoint accepts, one bisection tolerance outside it
        # rejects
        data = request.getfixturevalue(name)
        plan = PermutationPlan.random(n_draws=n_draws, seed=seed)
        iv = confidence_interval(data, 0, alpha=0.05, plan=plan)
        assert iv.lower < iv.center < iv.upper
        for m, expect in (
            (iv.lower - XTOL, False),
            (iv.lower, True),
            (iv.upper, True),
            (iv.upper + XTOL, False),
        ):
            res = marginal_permutation_test(data, m, 0, plan=plan)
            assert (res.p_value > 0.05) is expect

    def test_boundary_diagnostics(self, u10_interval):
        diag = u10_interval.boundary_diagnostics
        assert diag["center"]["accepted"]
        assert diag["center"]["p_value"] > 0.05
        for side in ("lower", "upper"):
            assert diag[side]["monotone_crossing"]
            assert not diag[side]["open_ended"]
            scan = diag[side]["scan"]
            assert scan[0][0] == u10_interval.center and scan[0][2]
            assert any(not ok for _, _, ok in scan)

    def test_deterministic(self, univariate10, u10_plan, u10_interval):
        again = confidence_interval(univariate10, 0, alpha=0.05, plan=u10_plan)
        assert again.lower == u10_interval.lower
        assert again.upper == u10_interval.upper
        assert again.center == u10_interval.center

    def test_rejected_center_degenerates(self, univariate10, u10_plan):
        iv = confidence_interval(
            univariate10, 0, alpha=0.05, plan=u10_plan, center=5.0
        )
        assert iv.lower == iv.upper == 5.0
        assert not iv.boundary_diagnostics["center"]["accepted"]
        for side in ("lower", "upper"):
            assert not iv.boundary_diagnostics[side]["monotone_crossing"]

    def test_rejects_bad_alpha(self, univariate10, u10_plan):
        with pytest.raises(ValueError, match="alpha"):
            confidence_interval(univariate10, 0, alpha=1.0, plan=u10_plan)


def _all_cold(monkeypatch):
    """Start every refit of an inversion at its test's observed fit."""
    monkeypatch.setattr(metaperm.permutation, "_nearest_solutions", lambda starts, value: None)


def _inversion(data, plan):
    mue, diag = median_unbiased_estimate(data, 0, plan=plan, full_output=True)
    return mue, diag, confidence_interval(data, 0, plan=plan)


class TestWarmStarts:
    @pytest.mark.parametrize(
        "name, plan",
        [
            ("bivariate12", PermutationPlan.random(100, seed=20240101)),
            ("univariate10", PermutationPlan.exhaustive()),
        ],
    )
    def test_equal_to_cold_only_inversion(self, request, name, plan, monkeypatch):
        # warm starts save refit work and change no reported number: the
        # estimate, the endpoints and every probe's p-value are those of
        # an inversion whose every test starts at its observed fit. With
        # one outcome the observed fit is every row's solution, so no
        # test starts warm
        data = request.getfixturevalue(name)
        evaluated = []
        real_terms = metaperm.estimators._row_terms

        def counted(*args):
            evaluated[-1] += args[2].shape[0]
            return real_terms(*args)

        monkeypatch.setattr(metaperm.estimators, "_row_terms", counted)
        evaluated.append(0)
        warm = _inversion(data, plan)
        evaluated.append(0)
        with monkeypatch.context() as m:
            _all_cold(m)
            cold = _inversion(data, plan)
        multi = data.p > 1
        assert evaluated[0] < evaluated[1] if multi else evaluated[0] == evaluated[1]
        (mue, diag, iv), (cold_mue, cold_diag, cold_iv) = warm, cold
        assert mue == cold_mue == iv.center
        assert diag["trace"] == cold_diag["trace"]
        assert diag["verified"] and diag["warm_probes"] == multi * (len(diag["trace"]) - 2)
        assert (iv.lower, iv.center, iv.upper) == (cold_iv.lower, cold_iv.center, cold_iv.upper)
        for side in ("lower", "upper"):
            d, cold_d = iv.boundary_diagnostics[side], cold_iv.boundary_diagnostics[side]
            assert d["scan"] == cold_d["scan"]
            assert d["verified"] and d["warm_probes"] == multi * (len(d["scan"]) - 1)

    def test_disagreeing_warm_verdict_redoes_the_side_cold(self, bivariate12, monkeypatch):
        # a warm test that rejects the cold-only lower endpoint moves the
        # bisection's final rejected value onto it; its cold re-test
        # accepts, so the lower side is redone cold
        plan = PermutationPlan.random(100, seed=20240101)
        center = 0.45
        with monkeypatch.context() as m:
            _all_cold(m)
            cold = confidence_interval(bivariate12, 0, plan=plan, center=center)
        real = metaperm.inference._marginal_signed_distribution
        perturbed = []

        def rejecting(data, m, *args, warm=False, **kwargs):
            s_obs, roots, *rest = real(data, m, *args, warm=warm, **kwargs)
            if warm and m == cold.lower:
                # every permuted root below the observed one: p = 1/(B + 1)
                perturbed.append(m)
                roots = np.zeros_like(roots)
            return (s_obs, roots, *rest)

        monkeypatch.setattr(metaperm.inference, "_marginal_signed_distribution", rejecting)
        iv = confidence_interval(bivariate12, 0, plan=plan, center=center)
        assert perturbed == [cold.lower]
        assert (iv.lower, iv.upper) == (cold.lower, cold.upper)
        lower, upper = iv.boundary_diagnostics["lower"], iv.boundary_diagnostics["upper"]
        assert not lower["verified"] and upper["verified"]
        assert lower["scan"] == cold.boundary_diagnostics["lower"]["scan"]

    def test_no_state_outlives_a_call(self, bivariate12):
        # standalone tests at values an interval probed, before and after
        # it, are bit for bit the same: the solutions die with the call.
        # The joint test is at the whole constrained mean of each probe
        plan = PermutationPlan.random(100, seed=20240101)
        _, se = metaperm.inference._wald_anchor(bivariate12, 0, None)
        center = 0.45
        values = (center, center - metaperm.inference.STEP_FRACTION * se)
        means = [fit_marginal_null(bivariate12, m, 0).mu for m in values]

        def standalone():
            out = []
            for m, mu in zip(values, means):
                out.append(marginal_permutation_test(bivariate12, m, 0, plan=plan))
                out.append(joint_permutation_test(bivariate12, mu, plan=plan, stat="cml"))
            return out

        fresh = standalone()
        iv = confidence_interval(bivariate12, 0, plan=plan, center=center)
        assert [m for m, _, _ in iv.boundary_diagnostics["lower"]["scan"][:2]] == list(values)
        for a, b in zip(fresh, standalone()):
            np.testing.assert_array_equal(a.distribution.statistics, b.distribution.statistics)
            assert (a.statistic, a.p_value, a.n_failed, a.used_pinv) == (
                b.statistic, b.p_value, b.n_failed, b.used_pinv
            )


class TestConfidenceRegion:
    # joint exhaustive tests at N=5 cannot reject at the 5% level (the
    # global reflection always ties the identity, so min p = 2/32), so
    # region tests that need both outcomes use the six-study fixture
    def test_lattice_contract(self, bivariate6):
        bounds = [(-0.5, 1.2), (-1.0, 0.6)]
        grid = confidence_region(
            bivariate6,
            components=(0, 1),
            alpha=0.05,
            bounds=bounds,
            resolution=20,
            stat="moment",
            plan=PermutationPlan.exhaustive(),
        )
        assert grid.shape == (20, 20)
        np.testing.assert_allclose(grid.axis_values[0], np.linspace(-0.5, 1.2, 20))
        np.testing.assert_allclose(grid.axis_values[1], np.linspace(-1.0, 0.6, 20))
        assert not grid.failed.any()
        assert np.isfinite(grid.statistic).all()
        np.testing.assert_array_equal(grid.accepted, grid.p_value > 0.05)
        np.testing.assert_array_equal(grid.accepted, grid.statistic <= grid.threshold)
        assert grid.accepted.any() and not grid.accepted.all()
        assert grid.fixed_components == {}

    def test_rows_are_row_major(self, bivariate6):
        grid = confidence_region(
            bivariate6,
            bounds=[(0.0, 1.0), (-1.0, 0.0)],
            resolution=20,
            stat="moment",
            plan=PermutationPlan.exhaustive(),
        )
        rows = grid.to_rows()
        assert len(rows) == 400
        assert rows[0][0] == pytest.approx(0.0) and rows[0][1] == pytest.approx(-1.0)
        # second row advances the last axis first
        assert rows[1][0] == pytest.approx(0.0)
        assert rows[1][1] == pytest.approx(grid.axis_values[1][1])
        assert rows[20][0] == pytest.approx(grid.axis_values[0][1])
        k = int(np.argmax(grid.accepted.ravel()))
        assert rows[k][4] is True

    def test_default_bounds_cover_estimate(self, bivariate6):
        fit = fit_ml(bivariate6)
        grid = confidence_region(
            bivariate6, resolution=20, stat="moment", plan=PermutationPlan.exhaustive()
        )
        for axis, j in enumerate(grid.axis_components):
            assert grid.axis_values[axis][0] < fit.mu[j] < grid.axis_values[axis][-1]
        assert grid.accepted.any()

    def test_failed_points_are_not_accepted(self, bivariate5, monkeypatch):
        def boom(*args, **kwargs):
            raise NonConvergenceError("forced failure")

        monkeypatch.setattr(metaperm.inference, "joint_permutation_test", boom)
        grid = confidence_region(
            bivariate5,
            bounds=[(-0.5, 0.5), (-0.5, 0.5)],
            resolution=20,
            plan=PermutationPlan.exhaustive(),
        )
        assert grid.failed.all()
        assert not grid.accepted.any()
        assert np.isnan(grid.statistic).all()

    @pytest.mark.parametrize("fixture", ["bivariate5", "bivariate12"])
    def test_explicit_bounds_over_every_axis_need_no_fit(self, fixture, request, monkeypatch):
        data = request.getfixturevalue(fixture)
        kwargs = dict(resolution=20, stat="moment", plan=PermutationPlan.exhaustive())
        bounds = [(-0.5, 1.0), (-1.0, 0.5)]
        expected = confidence_region(data, bounds=bounds, **kwargs)

        def fail(*args, **kw):
            raise NonConvergenceError("forced failure")

        monkeypatch.setattr(metaperm.inference, "fit_ml", fail)
        grid = confidence_region(data, components=(0, 1), bounds=bounds, **kwargs)
        for name in ("statistic", "threshold", "p_value", "accepted", "failed"):
            np.testing.assert_array_equal(getattr(grid, name), getattr(expected, name))
        assert grid.fixed_components == {}
        # default bounds come from the fit
        with pytest.raises(NonConvergenceError, match="forced"):
            confidence_region(data, **kwargs)

    def test_validation(self, bivariate5):
        plan = PermutationPlan.exhaustive()
        with pytest.raises(ValueError, match="two axis"):
            confidence_region(bivariate5, components=(0,), plan=plan)
        with pytest.raises(ValueError, match="distinct"):
            confidence_region(bivariate5, components=(0, 0), plan=plan)
        with pytest.raises(ValueError, match="out of range"):
            confidence_region(bivariate5, components=(0, 5), plan=plan)
        with pytest.raises(ValueError, match="resolution"):
            confidence_region(bivariate5, resolution=19, plan=plan)
        with pytest.raises(ValueError, match="bound"):
            confidence_region(bivariate5, bounds=[(0.0, 1.0)], plan=plan)
        with pytest.raises(ValueError, match="finite"):
            confidence_region(bivariate5, bounds=[(0.0, 1.0), (2.0, 1.0)], plan=plan)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1])
    def test_rejects_alpha_outside_unit_interval(self, bivariate6, alpha):
        # alpha = 1.5 used to accept no lattice point and alpha = 0 every one
        with pytest.raises(ValueError, match="alpha"):
            confidence_region(
                bivariate6,
                alpha=alpha,
                bounds=[(-0.5, 1.2), (-1.0, 0.6)],
                stat="moment",
                plan=PermutationPlan.exhaustive(),
            )
