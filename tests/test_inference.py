"""Tests for Wald summaries, interval/region inversion, and point estimates."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2, norm

import metaperm.estimators
import metaperm.inference
import metaperm.permutation
from metaperm import (
    CovStructure,
    DataError,
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
    wald_inference,
)
from metaperm.inference import XTOL, _chi2_ppf, _chi2_sf, ndtri
from metaperm.permutation import CHUNK_BYTES, NullDistribution, _joint_tests, _sign_plan

from conftest import make_mvn


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

    @pytest.mark.parametrize(
        "information",
        [
            np.ones((2, 2)),                        # rank 1
            [[1.0, 2.0], [2.0, 1.0]],               # indefinite
            np.diag([1.0, 1e-11]),                  # below the pseudoinverse cutoff
            np.diag([1.0, 0.0, 2.0]),               # p = 3, eigh
        ],
    )
    def test_singular_information_rejected(self, bivariate5, information):
        fit = fit_ml(bivariate5)
        information = np.asarray(information)
        singular = dataclasses.replace(
            fit, mu=np.zeros(information.shape[0]), information=information
        )
        with pytest.raises(SingularInformationError):
            wald_inference(singular)


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


class TestSearch:
    def test_equals_a_plain_cold_inversion(self, univariate10, u10_plan):
        # with one outcome every test of an inversion is cold, so the
        # search must be a plain bisection over standalone signed
        # p-values for the estimate, and a plain scan and bisection over
        # standalone marginal tests for each endpoint, probe for probe
        data, plan = univariate10, u10_plan
        structure = CovStructure.unstructured()
        wald = wald_inference(fit_ml(data))
        anchor, se = float(wald.estimate[0]), float(wald.se[0])

        def signed_p(m):
            # the canonical rows' roots expanded to every row of the plan
            s_obs, roots, _, _, fold, _ = metaperm.permutation._refit_distribution(
                data, m, 0, structure, plan
            )
            expanded = roots[fold.inverse] * fold.flips
            return NullDistribution(statistics=expanded, mode=plan.mode).p_value(s_obs)

        def bisect(inner, outer, test, holds, log):
            while abs(outer - inner) > XTOL:
                mid = 0.5 * (inner + outer)
                p = test(mid)
                log.append((mid, p))
                if holds(p):
                    inner = mid
                else:
                    outer = mid
            return inner, outer

        lo, hi = anchor - 4.0 * se, anchor + 4.0 * se
        trace = [(lo, signed_p(lo)), (hi, signed_p(hi))]
        assert trace[0][1] <= 0.5 <= trace[1][1]
        inner, outer = bisect(lo, hi, signed_p, lambda p: p <= 0.5, trace)
        mue = 0.5 * (inner + outer)

        est, diag = median_unbiased_estimate(data, 0, plan=plan, full_output=True)
        assert est == mue
        assert diag["trace"] == trace
        assert diag["verified"] and diag["warm_probes"] == 0

        def p_value(m):
            return marginal_permutation_test(data, m, 0, plan=plan).p_value

        iv = confidence_interval(data, 0, plan=plan)
        assert iv.center == mue
        p_center = p_value(mue)
        assert p_center > 0.05
        for side, direction, bound in (("lower", -1.0, iv.lower), ("upper", 1.0, iv.upper)):
            log = [(mue, p_center)]
            inner = mue
            for k in range(1, metaperm.inference.MAX_STEPS + 1):
                m = mue + direction * k * (metaperm.inference.STEP_FRACTION * se)
                log.append((m, p_value(m)))
                if log[-1][1] <= 0.05:
                    break
                inner = m
            inner, _ = bisect(inner, m, p_value, lambda p: p > 0.05, log)
            assert bound == inner
            assert iv.boundary_diagnostics[side]["scan"] == [(m, p, p > 0.05) for m, p in log]

    def test_bisection_ends_where_floats_are_wider_than_xtol(
        self, univariate10, u10_plan, monkeypatch
    ):
        # floats near 1e12 lie 1.2e-4 apart, more than XTOL, so the
        # midpoint of two adjacent ones rounds onto an end; the bisection
        # stops there instead of probing that end forever
        data = Dataset.from_arrays(univariate10.Y + 1e12, univariate10.S)
        real = metaperm.inference._marginal_signed_distribution
        probed = []

        def counted(*args):
            probed.append(args[1])
            if len(probed) > 200:
                raise RuntimeError(f"more than 200 probes, the last at {args[1]!r}")
            return real(*args)

        monkeypatch.setattr(metaperm.inference, "_marginal_signed_distribution", counted)
        mue, diag = median_unbiased_estimate(data, 0, plan=u10_plan, full_output=True)
        assert diag["crossed"]
        iv = confidence_interval(data, 0, plan=u10_plan)
        assert iv.center == mue
        for bound, outward in ((iv.lower, -np.inf), (iv.upper, np.inf)):
            accepted = marginal_permutation_test(data, bound, 0, plan=u10_plan)
            beyond = marginal_permutation_test(data, np.nextafter(bound, outward), 0, plan=u10_plan)
            assert accepted.p_value > 0.05 >= beyond.p_value


def _all_cold(monkeypatch):
    """Start every refit of an inversion at its test's observed fit."""
    monkeypatch.setattr(metaperm.inference._Probes, "nearest", lambda self, value: None)


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

        def rejecting(data, m, component, structure, plan, starts=None):
            s_obs, roots, *rest = real(data, m, component, structure, plan, starts)
            if starts is not None and m == cold.lower:
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
        se = metaperm.inference._Probes(bivariate12, 0, plan, None).anchor_se
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


def test_no_start_extrapolated_through_a_zero_tau(bivariate5, monkeypatch):
    # under cs:0.3 some of bivariate5's sign rows settle at tau = 0, where
    # the objective is flat in log tau. A line through such a solution
    # starts its row far outside the box (log tau up to 26 before
    # clipping), and the row reaches another maximum: warm scan p-values
    # of 0.485 where cold tests give 0.178. Those rows are not
    # extrapolated, so a warm scan up from the ML estimate reads the
    # p-values of cold tests
    plan, structure = PermutationPlan.random(100, seed=20240101), CovStructure.cs(0.3)
    warm = metaperm.inference._Probes(bivariate5, 0, plan, structure)
    cold = metaperm.inference._Probes(bivariate5, 0, plan, structure)
    step = metaperm.inference.STEP_FRACTION * warm.anchor_se
    values = warm.anchor + step * np.arange(16)
    real = metaperm.inference._marginal_signed_distribution
    started = []

    def recorded(data, m, component, structure, plan, starts=None):
        started.append(starts is not None)
        return real(data, m, component, structure, plan, starts)

    monkeypatch.setattr(metaperm.inference, "_marginal_signed_distribution", recorded)
    scan = [warm.p_value(m, k > 0, signed=False) for k, m in enumerate(values)]
    assert started == [k > 0 for k in range(len(values))]
    assert scan == [cold.p_value(m, False, signed=False) for m in values]


def _stored(solutions):
    """An inversion's probes holding these {null value: row solutions}.

    nearest reads nothing else, so the probes skip their ML fit.
    """
    probes = object.__new__(metaperm.inference._Probes)
    probes.solutions = dict(solutions)
    return probes


class TestNearestSolutions:
    def test_nothing_stored(self):
        assert _stored({}).nearest(0.3) is None

    def test_one_stored_value_is_every_row_start(self):
        solutions = np.array([[0.1, 0.2], [np.nan, np.nan]])
        np.testing.assert_array_equal(_stored({0.5: solutions}).nearest(0.3), solutions)

    def test_line_through_the_two_nearest_values(self):
        probes = _stored({
            0.0: np.array([[1.0, 2.0]]),
            1.0: np.array([[3.0, 6.0]]),
            5.0: np.array([[100.0, -100.0]]),
        })
        # beyond, between and before the two nearest; 5.0 is never one
        # of them until the value comes closer to it than to 0.0
        for value, want in ((2.0, [[5.0, 10.0]]), (0.25, [[1.5, 3.0]]), (-1.0, [[-1.0, -2.0]])):
            np.testing.assert_allclose(probes.nearest(value), want, rtol=1e-15)
        np.testing.assert_allclose(
            probes.nearest(3.5), [[3.0 + 2.5 * 97.0 / 4.0, 6.0 - 2.5 * 106.0 / 4.0]]
        )
        # a stored value itself returns its own solutions
        np.testing.assert_array_equal(probes.nearest(1.0), probes.solutions[1.0])

    def test_rows_nan_at_either_value_take_the_nearest(self):
        probes = _stored({
            0.0: np.array([[1.0, 2.0], [np.nan, np.nan], [1.0, 1.0]]),
            1.0: np.array([[3.0, 6.0], [4.0, 4.0], [np.nan, np.nan]]),
        })
        out = probes.nearest(1.5)
        np.testing.assert_allclose(out[0], [4.0, 8.0])
        np.testing.assert_array_equal(out[1], [4.0, 4.0])
        assert np.isnan(out[2]).all()


class TestConfidenceRegion:
    # joint exhaustive tests at N=5 cannot reject at the 5% level (the
    # global reflection always ties the identity, so min p = 2/32), so
    # region tests that need both outcomes use the six-study fixture
    def test_t2_refuses_a_structure(self, bivariate6):
        bounds = [(-0.5, 1.2), (-1.0, 0.6)]
        plan = PermutationPlan.exhaustive()
        with pytest.raises(ValueError, match="t2 takes no covariance structure"):
            confidence_region(
                bivariate6, bounds=bounds, stat="moment", plan=plan,
                structure=CovStructure.cs(0.5),
            )
        base = confidence_region(bivariate6, bounds=bounds, stat="moment", plan=plan)
        named = confidence_region(
            bivariate6, bounds=bounds, stat="moment", plan=plan,
            structure=CovStructure.unstructured(),
        )
        assert named.p_value.tobytes() == base.p_value.tobytes()
        assert named.threshold.tobytes() == base.threshold.tobytes()

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

    def test_failed_points_are_not_accepted(self, bivariate6, monkeypatch):
        # the t1 fit fails at two accepted lattice means only: those two
        # points are failed and not accepted, and every other point reads
        # as it does without the failures, bit for bit, from one pass of
        # the joint engine over the whole lattice
        kwargs = dict(bounds=[(-0.5, 1.2), (-1.0, 0.6)], plan=PermutationPlan.exhaustive())
        base = confidence_region(bivariate6, **kwargs)
        mus = _lattice_means(base, 2)
        accepted = np.flatnonzero(base.accepted.ravel())
        chosen = accepted[[0, len(accepted) // 2]]
        real = metaperm.permutation.fit_eta_given_mu

        def failing_at_two_means(data, mu, *args, **kw):
            if (mus[chosen] == mu).all(axis=1).any():
                raise NonConvergenceError("forced failure")
            return real(data, mu, *args, **kw)

        monkeypatch.setattr(metaperm.permutation, "fit_eta_given_mu", failing_at_two_means)
        passes = []
        real_tests = metaperm.inference._joint_tests

        def counted(data, mus, *args):
            passes.append(len(mus))
            return real_tests(data, mus, *args)

        monkeypatch.setattr(metaperm.inference, "_joint_tests", counted)
        grid = confidence_region(bivariate6, **kwargs)
        assert passes == [base.p_value.size]
        failed = np.zeros(base.p_value.size, dtype=bool)
        failed[chosen] = True
        np.testing.assert_array_equal(grid.failed.ravel(), failed)
        assert not grid.accepted.ravel()[chosen].any()
        for name in ("statistic", "threshold", "p_value", "accepted"):
            got, want = getattr(grid, name).ravel(), getattr(base, name).ravel()
            np.testing.assert_array_equal(got[~failed], want[~failed])
            if name != "accepted":
                assert np.isnan(got[chosen]).all()

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


def _lattice_means(grid, p):
    """Each lattice point's null mean, row-major, as confidence_region forms it."""
    mesh = np.meshgrid(*grid.axis_values, indexing="ij")
    mus = np.empty((mesh[0].size, p))
    for j, v in grid.fixed_components.items():
        mus[:, j] = v
    for j, values in zip(grid.axis_components, mesh):
        mus[:, j] = values.ravel()
    return mus


class TestMomentRegionChunks:
    """A t2 region tests a chunk of lattice points per product with the
    sign plan; each point must read as its own joint_permutation_test."""

    @pytest.mark.parametrize(
        "name, plan, kwargs",
        [
            ("bivariate6", PermutationPlan.exhaustive(), {}),
            ("bivariate12", PermutationPlan.exhaustive(), {}),
            ("bivariate12", PermutationPlan.random(2400), {}),
            # 441 points: four to a chunk, the last chunk holds one
            ("mvn16", PermutationPlan.exhaustive(), {"resolution": 21}),
            ("mvn16", PermutationPlan.random(257), {"resolution": 21}),
            # p = 3, component 1 fixed at its ML estimate
            ("trivariate10", PermutationPlan.exhaustive(), {"components": (0, 2)}),
            # the same studies with outcomes missing: the moment covariance
            # of each chunk is taken pair by pair over the observing studies
            ("trivariate_missing", PermutationPlan.exhaustive(), {"components": (0, 2)}),
        ],
    )
    def test_equals_one_test_per_point(self, request, name, plan, kwargs):
        if name == "mvn16":
            data = make_mvn(16, 16)
        elif name == "trivariate10":
            data = make_mvn(31, 10, tau=(0.3, 0.35, 0.4), kappa=0.4, mu=(0.2, 0.0, -0.3))
        else:
            data = request.getfixturevalue(name)
        grid = confidence_region(data, stat="moment", plan=plan, **kwargs)
        assert grid.accepted.any() and not grid.accepted.all()
        tests = [
            joint_permutation_test(data, mu, plan=plan, stat="moment")
            for mu in _lattice_means(grid, data.p)
        ]
        statistic = np.array([t.statistic for t in tests]).reshape(grid.shape)
        p_value = np.array([t.p_value for t in tests]).reshape(grid.shape)
        threshold = np.array([t.distribution.threshold(0.05) for t in tests]).reshape(grid.shape)
        np.testing.assert_array_equal(grid.statistic, statistic)
        np.testing.assert_array_equal(grid.p_value, p_value)
        np.testing.assert_array_equal(grid.accepted, p_value > 0.05)
        assert not grid.failed.any()
        if plan.mode == "exhaustive":
            np.testing.assert_array_equal(grid.threshold, threshold)
        else:
            # BLAS may sum a canonical row's product in another order when
            # more points share it, so a threshold can move in its last bits
            np.testing.assert_allclose(grid.threshold, threshold, rtol=1e-13, atol=0.0)

    def test_first_failing_point_raises(self, bivariate12, monkeypatch):
        # two neighbouring points of the second chunk get an indefinite
        # setup: the points before them are yielded as they are without
        # the fault, each of the two yields its DataError in its own turn,
        # the pass goes on to the point after them, and the region raises
        # the first
        plan = PermutationPlan.exhaustive()
        per_chunk = CHUNK_BYTES // (8 * 2 * 2 ** 11)
        first = per_chunk + 1
        kwargs = dict(bounds=[(-0.5, 1.0), (-1.0, 0.5)], resolution=20, stat="moment", plan=plan)
        mus = _lattice_means(confidence_region(bivariate12, **kwargs), 2)
        expected = list(_joint_tests(bivariate12, mus[: first + 3], plan))
        real = metaperm.permutation.moment_between_cov

        def indefinite_at_two_points(data, chunk):
            sigma, truncated = real(data, chunk)
            bad = (chunk[:, None, :] == mus[None, first : first + 2]).all(axis=2).any(axis=1)
            sigma[bad] = -10.0 * np.eye(2)
            return sigma, truncated

        monkeypatch.setattr(metaperm.permutation, "moment_between_cov", indefinite_at_two_points)
        tests = _joint_tests(bivariate12, mus, plan)
        for k, want in enumerate(expected):
            got = next(tests)
            if k in (first, first + 1):
                assert isinstance(got, DataError)
                continue
            np.testing.assert_array_equal(got.mu_null, want.mu_null)
            assert got.statistic == want.statistic and got.p_value == want.p_value
        with pytest.raises(DataError):
            confidence_region(bivariate12, **kwargs)

    @staticmethod
    def _region_peak(resolution):
        """Peak traced bytes above the held sign plan of an exhaustive
        t2 region at N = 16 with resolution points per axis."""
        data = make_mvn(1, 16)
        plan = PermutationPlan.exhaustive()
        _sign_plan.cache_clear()
        _sign_plan(plan, 16)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            confidence_region(
                data, bounds=[(-0.5, 1.0), (-1.0, 0.5)], resolution=resolution, stat="moment",
                plan=plan,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            _sign_plan.cache_clear()
        return peak - base

    def test_memory_within_the_chunk_cap(self):
        # above the held sign plan, a 20 x 20 exhaustive region at N = 16
        # holds one chunk's product, at most CHUNK_BYTES, and less
        # than three float vectors of the plan's length: the point under
        # test's null expanded to every row and the NullDistribution's
        # copy of it. A chunk's product must be released before the next
        # one is formed, and a point's null before the next point's
        vector = 8 * 2 ** 16
        assert self._region_peak(20) < CHUNK_BYTES + 3 * vector

    def test_memory_of_a_large_lattice_within_the_chunk_cap(self):
        # 3,600 points are set up a chunk at a time: setting the whole
        # lattice up at once would hold every point's weights and
        # residuals beside a chunk's product
        vector = 8 * 2 ** 16
        assert self._region_peak(60) < CHUNK_BYTES + 3 * vector
