"""ML, REML, constrained fits, and the moment covariance estimator."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.stats import norm

from metaperm import (
    CovStructure,
    Dataset,
    HetParams,
    IncompleteDataError,
    NonConvergenceError,
    between_cov,
    fit_eta_given_mu,
    fit_marginal_null,
    fit_ml,
    fit_reml,
    het_from_cov,
    model_terms,
    moment_between_cov,
)
import metaperm.estimators
from metaperm.estimators import _neg_profiled_free, _pack, refit_rows, sigma_rows

from conftest import make_mvn

UNSTR = CovStructure.unstructured()
TAU_GRID_HI = 2.0


def univariate_profile_ml(y, s2, tau):
    """Independent scalar profile log-likelihood at heterogeneity tau."""
    v = tau**2 + s2
    w = 1.0 / v
    mu = np.sum(w * y) / np.sum(w)
    return float(np.sum(norm.logpdf(y, mu, np.sqrt(v))))


def univariate_restricted(y, s2, tau):
    """Independent scalar restricted log-likelihood at tau."""
    v = tau**2 + s2
    w = 1.0 / v
    return univariate_profile_ml(y, s2, tau) - 0.5 * np.log(np.sum(w))


def argmax_tau(objective, y, s2):
    """Grid search plus bounded refinement, independent of the package."""
    grid = np.linspace(0.0, TAU_GRID_HI, 2001)
    values = [objective(y, s2, t) for t in grid]
    t0 = grid[int(np.argmax(values))]
    lo, hi = max(t0 - 0.01, 0.0), t0 + 0.01
    res = minimize_scalar(
        lambda t: -objective(y, s2, t), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.x)


def loglik(data, mu, het):
    return model_terms(data, mu, between_cov(het, UNSTR)).loglik


class TestFitMl:
    def test_homogeneous_data_recovers_common_value(self):
        y = np.full((4, 1), 0.7)
        S = np.full((4, 1, 1), 0.05)
        fit = fit_ml(Dataset.from_arrays(y, S))
        assert fit.converged
        assert np.isclose(fit.mu[0], 0.7, atol=1e-10)
        assert fit.het.tau[0] == 0.0

    def test_univariate_matches_grid_search_oracle(self, univariate10):
        Y, S = univariate10.Y, univariate10.S
        y, s2 = Y[:, 0], S[:, 0, 0]
        fit = fit_ml(univariate10)
        tau_oracle = argmax_tau(univariate_profile_ml, y, s2)
        assert abs(fit.het.tau[0] - tau_oracle) < 1e-4
        w = 1.0 / (tau_oracle**2 + s2)
        assert np.isclose(fit.mu[0], np.sum(w * y) / np.sum(w), atol=1e-6)

    def test_equal_variances_give_arithmetic_mean(self):
        rng = np.random.default_rng(3)
        y = rng.normal(0.5, 0.4, 9)
        data = Dataset.from_arrays(y[:, None], np.full((9, 1, 1), 0.09))
        fit = fit_ml(data)
        assert np.isclose(fit.mu[0], y.mean(), atol=1e-8)

    def test_objective_trace_is_monotone(self, bivariate6):
        fit = fit_ml(bivariate6)
        trace = np.asarray(fit.loglik_trace)
        slack = 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(np.diff(trace) >= -slack)

    def test_local_maximizer_on_lattice(self, bivariate6):
        fit = fit_ml(bivariate6)
        ll_hat = loglik(bivariate6, fit.mu, fit.het)
        assert np.isclose(ll_hat, fit.loglik, rtol=1e-10)
        for dmu in (-0.05, 0.05):
            for dtau in (-0.05, 0.05):
                tau = np.clip(fit.het.tau + dtau, 0.0, None)
                h = HetParams(tau=tau, kappa=fit.het.kappa)
                assert loglik(bivariate6, fit.mu + dmu, h) <= ll_hat + 1e-10

    def test_requires_two_studies(self):
        data = Dataset.from_arrays([[0.1]], [[[0.2]]])
        with pytest.raises(Exception):
            fit_ml(data)

    def test_missing_data_fit_converges(self, trivariate_missing):
        fit = fit_ml(trivariate_missing)
        assert fit.converged
        assert np.all(np.isfinite(fit.mu))
        assert np.all(np.linalg.eigvalsh(fit.sigma) >= -1e-10)


class TestFitReml:
    def test_univariate_matches_grid_search_oracle(self, univariate10):
        Y, S = univariate10.Y, univariate10.S
        y, s2 = Y[:, 0], S[:, 0, 0]
        fit = fit_reml(univariate10)
        tau_oracle = argmax_tau(univariate_restricted, y, s2)
        assert abs(fit.het.tau[0] - tau_oracle) < 1e-4

    def test_reml_tau_at_least_ml_tau_balanced(self):
        rng = np.random.default_rng(12)
        y = rng.normal(0.0, 0.5, 8)
        data = Dataset.from_arrays(y[:, None], np.full((8, 1, 1), 0.04))
        tau_ml = fit_ml(data).het.tau[0]
        tau_reml = fit_reml(data).het.tau[0]
        y_arr, s2 = y, np.full(8, 0.04)
        assert abs(tau_ml - argmax_tau(univariate_profile_ml, y_arr, s2)) < 1e-4
        assert abs(tau_reml - argmax_tau(univariate_restricted, y_arr, s2)) < 1e-4
        assert tau_reml >= tau_ml - 1e-8

    def test_zero_heterogeneity_data(self):
        y = np.full((5, 1), -0.2)
        data = Dataset.from_arrays(y, np.full((5, 1, 1), 0.1))
        assert fit_ml(data).het.tau[0] == 0.0
        assert fit_reml(data).het.tau[0] == 0.0

    def test_bivariate_smoke_reports_finite_sds(self, bivariate6):
        ml = fit_ml(bivariate6)
        reml = fit_reml(bivariate6)
        assert ml.converged and reml.converged
        assert np.all(np.isfinite(ml.het.tau)) and np.all(np.isfinite(reml.het.tau))
        assert reml.method == "reml" and ml.method == "ml"


class TestConstrainedEta:
    def test_constraint_inactive_at_ml_optimum(self, bivariate6):
        fit = fit_ml(bivariate6)
        cml = fit_eta_given_mu(bivariate6, fit.mu)
        assert np.allclose(cml.het.tau, fit.het.tau, atol=1e-5)
        assert np.allclose(cml.het.kappa, fit.het.kappa, atol=1e-4)

    def test_univariate_matches_grid_search_oracle(self, univariate10):
        Y, S = univariate10.Y, univariate10.S
        y, s2 = Y[:, 0], S[:, 0, 0]
        mu0 = 0.1

        def constrained(yy, ss, tau):
            v = tau**2 + ss
            return float(np.sum(norm.logpdf(yy, mu0, np.sqrt(v))))

        cml = fit_eta_given_mu(univariate10, [mu0])
        assert abs(cml.het.tau[0] - argmax_tau(constrained, y, s2)) < 1e-4

    def test_distant_null_inflates_heterogeneity(self, bivariate6):
        fit = fit_ml(bivariate6)
        far = fit.mu + np.array([3.0, -3.0])
        cml = fit_eta_given_mu(bivariate6, far)
        assert np.max(cml.het.tau) > np.max(fit.het.tau)
        # the constrained optimum cannot beat the unconstrained one
        ll_far = loglik(bivariate6, far, cml.het)
        assert ll_far <= fit.loglik + 1e-9

    def test_invalid_start_is_not_a_converged_fit(self, trivariate_missing):
        # pairwise correlations of +-0.99 form no correlation matrix, so the
        # start's marginal covariances are indefinite; the objective's
        # penalty there has a zero gradient, which must not pass for
        # convergence
        K = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
        start = HetParams(tau=[1.0, 1.0, 1.0], kappa=K)
        with pytest.raises(NonConvergenceError) as info:
            fit_eta_given_mu(trivariate_missing, [0.2, 0.0, -0.3], init=start)
        assert not info.value.last_result.converged


class TestMarginalNull:
    def test_constraint_inactive_at_ml_optimum(self, bivariate6):
        fit = fit_ml(bivariate6)
        cml = fit_marginal_null(bivariate6, fit.mu[0], 0)
        assert np.isclose(cml.mu_c[0], fit.mu[1], atol=1e-6)
        assert np.allclose(cml.het.tau, fit.het.tau, atol=1e-4)

    def test_diagonal_weights_decouple_components(self):
        data = make_mvn(5, 8, tau=(0.2, 0.3), kappa=0.0, rho_range=(0.0, 0.0))
        structure = CovStructure.cs(0.0)
        Y, S = data.Y, data.S
        fits = [fit_marginal_null(data, v, 0, structure) for v in (-1.0, 2.0)]
        # with diagonal weights the free component ignores the fixed one
        assert np.isclose(fits[0].mu_c[0], fits[1].mu_c[0], atol=1e-6)
        tau2 = fits[0].het.tau[1]
        w = 1.0 / (tau2**2 + S[:, 1, 1])
        assert np.isclose(fits[0].mu_c[0], np.sum(w * Y[:, 1]) / np.sum(w), atol=1e-6)

    def test_two_study_toy_matches_grid_search(self):
        Y = np.array([[0.6, 0.1], [0.2, -0.3]])
        S = np.stack([np.diag([0.08, 0.10]), np.diag([0.12, 0.06])])
        data = Dataset.from_arrays(Y, S)
        structure = CovStructure.cs1(0.3)
        value = 0.5

        def direct_loglik(mu2, tau):
            sigma = tau**2 * np.array([[1.0, 0.3], [0.3, 1.0]])
            mu = np.array([value, mu2])
            total = 0.0
            for i in range(2):
                V = sigma + S[i]
                det = V[0, 0] * V[1, 1] - V[0, 1] ** 2
                r = Y[i] - mu
                quad = (V[1, 1] * r[0] ** 2 - 2 * V[0, 1] * r[0] * r[1] + V[0, 0] * r[1] ** 2) / det
                total += -0.5 * (np.log(det) + quad + 2 * np.log(2 * np.pi))
            return total

        mu2_grid = np.linspace(-1.0, 1.0, 161)
        tau_grid = np.linspace(0.0, 1.0, 161)
        values = np.array([[direct_loglik(m, t) for t in tau_grid] for m in mu2_grid])
        i, j = np.unravel_index(np.argmax(values), values.shape)
        from scipy.optimize import minimize

        res = minimize(
            lambda x: -direct_loglik(x[0], abs(x[1])),
            [mu2_grid[i], tau_grid[j]],
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12},
        )
        mu2_oracle, tau_oracle = res.x[0], abs(res.x[1])
        cml = fit_marginal_null(data, value, 0, structure)
        assert abs(cml.mu_c[0] - mu2_oracle) < 1e-3
        assert abs(cml.het.tau[0] - tau_oracle) < 1e-3

    def test_univariate_reduces_to_joint_constraint(self, univariate10):
        # with p = 1 fixing the one component is the joint null, bit for bit
        for v in (-0.3, 0.2, 1.5):
            a = fit_marginal_null(univariate10, v, 0)
            b = fit_eta_given_mu(univariate10, [v])
            assert a.het.tau.tobytes() == b.het.tau.tobytes()
            assert a.loglik == b.loglik and a.iterations == b.iterations
            assert a.converged and b.converged and a.mu_c.size == b.mu_c.size == 0

    @pytest.mark.parametrize("name, component", [("bivariate6", 0), ("trivariate_missing", 1)])
    def test_one_optimizer_call(self, request, monkeypatch, name, component):
        data = request.getfixturevalue(name)
        real = metaperm.estimators.minimize
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(metaperm.estimators, "minimize", counting)
        cml = fit_marginal_null(data, 0.1, component)
        assert cml.converged
        assert len(calls) == 1


class TestProfiledObjective:
    @pytest.mark.parametrize(
        "name, structure",
        [
            ("bivariate6", "unstructured"),
            ("bivariate6", "cs:0.3"),
            ("bivariate6", "cs1:0.3"),
            ("trivariate_missing", "unstructured"),
        ],
    )
    @pytest.mark.parametrize("mode", ["fixed-all", "fixed-one", "reml"])
    def test_gradient_matches_central_differences(self, request, name, structure, mode):
        data = request.getfixturevalue(name)
        structure = CovStructure.parse(structure)
        p = data.p
        mu0 = np.linspace(0.2, -0.1, p)
        fixed = {"fixed-all": list(range(p)), "fixed-one": [p - 1], "reml": []}[mode]
        fun = _neg_profiled_free(data, structure, fixed, mu0[fixed], restricted=mode == "reml")
        kappa = np.full((p, p), 0.3) + 0.7 * np.eye(p)
        x = _pack(HetParams(tau=np.linspace(0.25, 0.4, p), kappa=kappa), structure)
        _, g = fun(x)
        step = 1e-6
        for a in range(x.size):
            e = np.zeros_like(x)
            e[a] = step
            fd = (fun(x + e)[0] - fun(x - e)[0]) / (2 * step)
            assert abs(fd - g[a]) < 1e-6 * max(1.0, abs(g[a])), (a, fd, g[a])

    def test_fixed_all_value_is_the_model_terms_loglik(self, trivariate_missing):
        mu0 = np.array([0.2, 0.0, -0.3])
        start = HetParams(tau=[0.3, 0.35, 0.4], kappa=np.full((3, 3), 0.3) + 0.7 * np.eye(3))
        f, _ = _neg_profiled_free(trivariate_missing, UNSTR, [0, 1, 2], mu0)(_pack(start, UNSTR))
        sigma = between_cov(start, UNSTR)
        assert f == -model_terms(trivariate_missing, mu0, sigma).loglik


class TestRefitRows:
    @pytest.mark.parametrize("structure", ["unstructured", "cs:0.3", "cs1:0.3"])
    @pytest.mark.parametrize("component", [None, 1])
    def test_rows_match_scalar_fits(self, trivariate_missing, structure, component):
        # rows: the data and two rescalings of its deviations from mu0,
        # refit together from one start and one at a time
        structure = CovStructure.parse(structure)
        data = trivariate_missing
        mu0 = np.array([0.2, 0.0, -0.3])
        fixed = [0, 1, 2] if component is None else [component]
        scales = np.array([1.0, 0.6, 1.5])
        Ys = [mu0[g.idx] + scales[:, None, None] * (g.Y - mu0[g.idx]) for g in data._groups]
        start = HetParams(tau=[0.3, 0.35, 0.4], kappa=np.full((3, 3), 0.3) + 0.7 * np.eye(3))
        X, mu_free, converged = refit_rows(data, Ys, fixed, mu0[fixed], structure, start)
        assert converged.all()
        sigmas = sigma_rows(X, structure, 3)
        Y, S = data.Y, data.S
        for b, scale in enumerate(scales):
            row = Dataset.from_arrays(mu0 + scale * (Y - mu0), S, observed=data.observed)
            if component is None:
                cml = fit_eta_given_mu(row, mu0, structure, init=start)
            else:
                cml = fit_marginal_null(row, mu0[component], component, structure, init=start)
                np.testing.assert_allclose(mu_free[b], cml.mu_c, atol=1e-6)
            np.testing.assert_allclose(sigmas[b], between_cov(cml.het, structure), atol=1e-6)


class TestMomentBetweenCov:
    def test_two_study_truncation_by_hand(self):
        Y = np.array([[1.0, 0.0], [-1.0, 0.0]])
        S = np.stack([np.diag([0.5, 0.5])] * 2)
        data = Dataset.from_arrays(Y, S)
        sigma, truncated = moment_between_cov(data, np.zeros(2))
        assert truncated
        assert np.allclose(sigma, np.diag([0.5, 0.0]), atol=1e-15)

    def test_large_heterogeneity_tracks_sample_covariance(self):
        rng = np.random.default_rng(99)
        true = np.array([[4.0, 1.2], [1.2, 2.5]])
        Y = rng.multivariate_normal(np.zeros(2), true, size=4000)
        S = np.stack([np.diag([1e-4, 1e-4])] * 4000)
        data = Dataset.from_arrays(Y, S)
        sigma, truncated = moment_between_cov(data, np.zeros(2))
        sample = (Y.T @ Y) / 4000
        assert not truncated
        assert np.allclose(sigma, sample, atol=1e-3)

    def test_exact_sign_invariance(self, bivariate6):
        mu = np.array([0.3, -0.1])
        base, _ = moment_between_cov(bivariate6, mu)
        Y, S = bivariate6.Y, bivariate6.S
        rng = np.random.default_rng(5)
        for _ in range(8):
            v = rng.choice([-1.0, 1.0], size=6)
            flipped = Dataset.from_arrays(mu + v[:, None] * (Y - mu), S)
            sigma, _ = moment_between_cov(flipped, mu)
            assert np.array_equal(sigma, base)

    def test_incomplete_data_refused(self, trivariate_missing):
        with pytest.raises(IncompleteDataError):
            moment_between_cov(trivariate_missing, np.zeros(3))

    def test_output_is_psd(self, bivariate12):
        sigma, _ = moment_between_cov(bivariate12, np.zeros(2))
        assert np.all(np.linalg.eigvalsh(sigma) >= -1e-12)


class TestHetFromCov:
    def test_round_trip_through_between_cov(self):
        kappa = np.array([[1.0, -0.4], [-0.4, 1.0]])
        h = HetParams(tau=np.array([0.3, 0.5]), kappa=kappa)
        sigma = between_cov(h, UNSTR)
        back = het_from_cov(sigma)
        assert np.allclose(back.tau, h.tau, atol=1e-12)
        assert np.allclose(back.kappa, kappa, atol=1e-12)

    def test_zero_variance_component_gets_zero_correlation(self):
        sigma = np.diag([0.25, 0.0])
        h = het_from_cov(sigma)
        assert h.tau[1] == 0.0
        assert h.kappa[0, 1] == 0.0


class TestStructures:
    def test_cs_fit_respects_fixed_correlation(self, bivariate6):
        structure = CovStructure.cs(0.5)
        fit = fit_ml(bivariate6, structure)
        assert fit.converged
        tau = fit.het.tau
        if tau.min() > 0:
            assert np.isclose(fit.sigma[0, 1], 0.5 * tau[0] * tau[1], rtol=1e-8)

    def test_cs1_shares_one_tau(self, bivariate6):
        fit = fit_ml(bivariate6, CovStructure.cs1(0.25))
        assert fit.het.tau[0] == fit.het.tau[1]
