"""ML, REML, constrained fits, and the moment covariance estimator."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.stats import norm

from metaperm import (
    CovStructure,
    Dataset,
    HetParams,
    PermutationPlan,
    between_cov,
    fit_eta_given_mu,
    fit_marginal_null,
    fit_ml,
    fit_reml,
    model_terms,
    moment_between_cov,
)
import metaperm.estimators
from metaperm.estimators import (
    _bounds,
    _derivative_patterns,
    _het_from_free,
    _lbfgs_refit,
    _neg_profiled_free,
    _pack,
    _row_terms,
    _unpack,
    _unpack_rows,
    refit_rows,
    sigma_rows,
)
from metaperm.model import _gls_profile, _loglik_terms, _weights
from metaperm.permutation import _flipped_outcomes, generate_signs

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
        # convergence. The scalar run from a given start is refit_rows'
        # fallback
        K = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
        start = HetParams(tau=[1.0, 1.0, 1.0], kappa=K)
        structure = CovStructure.unstructured()
        _, _, _, ok, _ = _lbfgs_refit(
            trivariate_missing, np.arange(3), np.array([0.2, 0.0, -0.3]), structure,
            _pack(start, structure),
        )
        assert not ok


class TestMarginalNull:
    def test_constraint_inactive_at_ml_optimum(self, bivariate6):
        fit = fit_ml(bivariate6)
        cml = fit_marginal_null(bivariate6, fit.mu[0], 0)
        assert cml.mu[0] == fit.mu[0]
        assert np.isclose(cml.mu[1], fit.mu[1], atol=1e-6)
        assert np.allclose(cml.het.tau, fit.het.tau, atol=1e-4)

    def test_diagonal_weights_decouple_components(self):
        data = make_mvn(5, 8, tau=(0.2, 0.3), kappa=0.0, rho_range=(0.0, 0.0))
        structure = CovStructure.cs(0.0)
        Y, S = data.Y, data.S
        fits = [fit_marginal_null(data, v, 0, structure) for v in (-1.0, 2.0)]
        # with diagonal weights the free component ignores the fixed one
        assert np.isclose(fits[0].mu[1], fits[1].mu[1], atol=1e-6)
        tau2 = fits[0].het.tau[1]
        w = 1.0 / (tau2**2 + S[:, 1, 1])
        assert np.isclose(fits[0].mu[1], np.sum(w * Y[:, 1]) / np.sum(w), atol=1e-6)

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
        assert abs(cml.mu[1] - mu2_oracle) < 1e-3
        assert abs(cml.het.tau[0] - tau_oracle) < 1e-3

    def test_univariate_reduces_to_joint_constraint(self, univariate10):
        # with p = 1 fixing the one component is the joint null, bit for bit
        for v in (-0.3, 0.2, 1.5):
            a = fit_marginal_null(univariate10, v, 0)
            b = fit_eta_given_mu(univariate10, [v])
            assert a.het.tau.tobytes() == b.het.tau.tobytes()
            assert a.loglik == b.loglik and a.iterations == b.iterations
            assert a.converged and b.converged and a.mu.tolist() == b.mu.tolist() == [v]
            assert a.sigma.tobytes() == b.sigma.tobytes()

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
        x = _pack(start, UNSTR)
        f, _ = _neg_profiled_free(trivariate_missing, UNSTR, [0, 1, 2], mu0)(x)
        # the Sigma the objective sees: between_cov(start) differs from it
        # in the last bits after the log/atanh round trip of _pack
        sigma = _unpack(x, UNSTR, 3)[2]
        assert f == -model_terms(trivariate_missing, mu0, sigma).loglik


def _rescaled_rows(data, mu0, scales):
    """Outcome rows: the data's deviations from mu0 times each scale, per mask group."""
    return [mu0[g.idx] + scales[:, None, None] * (g.Y - mu0[g.idx]) for g in data._groups]


def _per_study_curvatures(data, Ys, X, fixed, values, structure):
    """fisher and obs of _row_terms, one study at a time.

    fisher = 1/2 sum_i tr(W_i E_a W_i E_b) and obs = sum_i s_i' E_a W_i
    E_b s_i - fisher - <G, d2Sigma/dx_a dx_b> - q_a' A^{-1} q_b with
    q_a = sum_i W_i E_a s_i over the free components: the per-study
    einsums that _row_terms replaced by moment products.
    """
    p = data.p
    free = np.setdiff1d(np.arange(p), fixed)
    Mt, Pk = _derivative_patterns(structure, p)
    nt = Mt.shape[0]
    R = X.shape[0]
    tau, K, sigma = _unpack_rows(X, structure, p)
    E = sigma[:, None] * Mt
    j, k = np.triu_indices(p, 1)
    if Pk.shape[0]:
        c = (1.0 - K[:, j, k] ** 2) * tau[:, j] * tau[:, k]
        E = np.concatenate([E, c[:, :, None, None] * Pk], axis=1)
    m = E.shape[1]
    blocks, _, _ = _weights(data, sigma, Ys)
    mu, Ainv, _, _, _ = _gls_profile(blocks, p, fixed, values)
    _, G, s_all = _loglik_terms(blocks, p, mu)
    fisher = np.zeros((R, m, m))
    uWu = np.zeros((R, m, m))
    q = np.zeros((R, m, p))
    for (g, _, W, _), s in zip(blocks, s_all):
        Eg = E[g.sel]
        P = np.einsum("rnij,rajk->rnaik", W, Eg)
        fisher += 0.5 * np.einsum("rnaij,rncji->rac", P, P)
        u = np.einsum("rajk,rnk->rnaj", Eg, s)
        Wu = np.einsum("rnij,rnaj->rnai", W, u)
        uWu += np.einsum("rnai,rnci->rac", u, Wu)
        q[:, :, g.idx] += Wu.sum(axis=1)
    GE = G[:, None] * E
    C = np.zeros((R, m, m))
    C[:, :nt] = np.einsum("rbij,aij->rab", GE, Mt)
    C[:, nt:, :nt] = np.swapaxes(C[:, :nt, nt:], 1, 2)
    for a in range(nt, m):
        C[:, a, a] = -2.0 * K[:, j[a - nt], k[a - nt]] * GE[:, a].sum(axis=(1, 2))
    obs = uWu - fisher - C
    if Ainv is not None:
        qf = q[:, :, free]
        obs -= np.einsum("rai,rij,rcj->rac", qf, Ainv, qf)
    return fisher, obs


class TestRowTerms:
    @pytest.fixture(
        params=[
            (name, structure, mode)
            for name in ("univariate10", "bivariate12", "trivariate_missing")
            for structure in ("unstructured", "cs:0.3", "cs1:0.3")
            for mode in ("fixed-all", "fixed-one")
        ],
        ids=lambda c: "-".join(c),
    )
    def case(self, request):
        # four outcome rows, each at its own heterogeneity near a valid one
        name, structure, mode = request.param
        data = request.getfixturevalue(name)
        structure = CovStructure.parse(structure)
        p = data.p
        mu0 = np.linspace(0.2, -0.1, p)
        fixed = np.arange(p) if mode == "fixed-all" else np.array([p - 1])
        Ys = _rescaled_rows(data, mu0, np.array([1.0, 0.6, 1.5, -0.8]))
        kappa = np.full((p, p), 0.3) + 0.7 * np.eye(p)
        x = _pack(HetParams(tau=np.linspace(0.25, 0.4, p), kappa=kappa), structure)
        X = x + 0.3 * np.random.default_rng(0).standard_normal((4, x.size))
        return data, Ys, X, fixed, mu0[fixed], structure

    @staticmethod
    def _terms(data, Ys, X, fixed, values, structure):
        free = np.setdiff1d(np.arange(data.p), fixed)
        Mt, Pk = _derivative_patterns(structure, data.p)
        return _row_terms(data, Ys, X, fixed, values, free, structure, Mt, Pk)

    def test_curvatures_match_per_study_sums(self, case):
        _, _, fisher, obs, _ = self._terms(*case)
        want_fisher, want_obs = _per_study_curvatures(*case)
        for got, want in ((fisher, want_fisher), (obs, want_obs)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_observed_information_is_the_gradient_jacobian(self, case):
        data, Ys, X, fixed, values, structure = case
        _, _, _, obs, _ = self._terms(*case)
        step = 1e-5
        for a in range(X.shape[1]):
            e = np.zeros_like(X)
            e[:, a] = step
            g_hi = self._terms(data, Ys, X + e, fixed, values, structure)[1]
            g_lo = self._terms(data, Ys, X - e, fixed, values, structure)[1]
            fd = (g_hi - g_lo) / (2 * step)
            scale = max(1.0, np.abs(fd).max())
            np.testing.assert_allclose(obs[:, :, a], fd, rtol=0, atol=1e-6 * scale)


def _trivariate_rows(data, structure, component, tau):
    """TestRefitRows' rows of trivariate_missing, started at tau and kappa 0.3."""
    mu0 = np.array([0.2, 0.0, -0.3])
    fixed = [0, 1, 2] if component is None else [component]
    Ys = _rescaled_rows(data, mu0, np.array([1.0, 0.6, 1.5]))
    start = HetParams(tau=tau, kappa=np.full((3, 3), 0.3) + 0.7 * np.eye(3))
    return data, Ys, fixed, mu0[fixed], CovStructure.parse(structure), start


def _counted_row_terms(monkeypatch):
    """Record a copy of the free vectors X of every _row_terms call."""
    calls = []
    real = metaperm.estimators._row_terms

    def counted(*args):
        calls.append(args[2].copy())
        return real(*args)

    monkeypatch.setattr(metaperm.estimators, "_row_terms", counted)
    return calls


class TestRefitRows:
    @pytest.mark.parametrize("structure", ["unstructured", "cs:0.3", "cs1:0.3"])
    @pytest.mark.parametrize("component", [None, 1])
    def test_rows_match_scalar_fits(self, trivariate_missing, structure, component):
        # rows: the data and two rescalings of its deviations from mu0,
        # refit together from one start and one at a time by the scalar
        # fitter, as refit_rows' fallback runs it
        data, Ys, fixed, values, structure, start = _trivariate_rows(
            trivariate_missing, structure, component, [0.3, 0.35, 0.4]
        )
        mu0 = np.array([0.2, 0.0, -0.3])
        X, mus, converged, failed = refit_rows(data, Ys, fixed, values, structure, start)
        assert converged.all() and not failed.any()
        sigmas = sigma_rows(X, structure, 3)
        Y, S = data.Y, data.S
        for b, scale in enumerate([1.0, 0.6, 1.5]):
            row = Dataset.from_arrays(mu0 + scale * (Y - mu0), S, observed=data.observed)
            x, mu, _, ok, _ = _lbfgs_refit(
                row, np.asarray(fixed), values, structure, _pack(start, structure)
            )
            assert ok
            assert np.array_equal(mus[b, fixed], mu0[fixed])
            np.testing.assert_allclose(mus[b], mu, atol=1e-6)
            sigma = between_cov(_het_from_free(x, structure, 3), structure)
            np.testing.assert_allclose(sigmas[b], sigma, atol=1e-6)

    @pytest.mark.parametrize(
        "case", ["bivariate5-exhaustive", "unstructured-far", "cs-far", "lone-row"]
    )
    def test_ladder_is_sequential_halving_bit_for_bit(self, request, monkeypatch, case):
        # rows whose line searches halve several times: the ladder tries
        # the halvings of many rows in one evaluation, yet every accepted
        # step, iterate, mean and convergence flag is the one that
        # halving a single step per evaluation (LADDER = 1) gives. A lone
        # row, with no rows beside it, still tries LADDER halvings at once
        if case == "bivariate5-exhaustive":
            data, structure = request.getfixturevalue("bivariate5"), CovStructure.cs(0.3)
            value = fit_ml(data, structure).mu[0]
            cml = fit_marginal_null(data, value, 0, structure)
            signs = generate_signs(PermutationPlan.exhaustive(), data.n_studies).astype(float)
            args = (data, _flipped_outcomes(data, cml.mu, signs), [0], [value], structure, cml.het)
        else:
            structure, tau = {
                "unstructured-far": ("unstructured", [0.01] * 3),
                "cs-far": ("cs:0.3", [3.0] * 3),
                "lone-row": ("unstructured", [0.01] * 3),
            }[case]
            data = request.getfixturevalue("trivariate_missing")
            args = _trivariate_rows(data, structure, None, tau)
            if case == "lone-row":
                # the 0.6 rescaling, whose line searches halve the most
                data, Ys, *rest = args
                args = (data, [Y[1:2] for Y in Ys], *rest)
        calls = _counted_row_terms(monkeypatch)
        ladder = refit_rows(*args)
        n_ladder = len(calls)
        monkeypatch.setattr(metaperm.estimators, "LADDER", 1)
        sequential = refit_rows(*args)
        assert n_ladder < len(calls) - n_ladder
        for got, want in zip(ladder, sequential):
            assert got.tobytes() == want.tobytes()

    def test_start_outside_the_box_is_clipped(self, trivariate_missing, monkeypatch):
        # a start beyond the bounds is clipped into the box and used; it
        # does not send its row back to init
        data, Ys, fixed, values, structure, start = _trivariate_rows(
            trivariate_missing, "unstructured", 1, [0.3, 0.35, 0.4]
        )
        lo, hi = np.array(_bounds(structure, 3)).T
        x0 = _pack(start, structure)
        starts = np.tile(x0, (3, 1))
        starts[0, 3] = hi[3] + 1.0
        starts[1, 0] = hi[0] + 2.0
        starts[1, 1] = 0.5
        starts[2] = np.nan
        clipped = np.clip(starts, lo, hi)
        calls = _counted_row_terms(monkeypatch)
        out = refit_rows(data, Ys, fixed, values, structure, start, starts)
        first = calls[0]
        np.testing.assert_array_equal(first[:2], clipped[:2])
        np.testing.assert_array_equal(first[2], x0)
        again = refit_rows(data, Ys, fixed, values, structure, start, clipped)
        for got, want in zip(out, again):
            assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize(
        "fixture, mu",
        [("bivariate6", [0.3, -0.1]), ("trivariate_missing", [0.8, 0.6, 0.3])],
    )
    def test_exact_sign_invariance(self, request, fixture, mu):
        # residuals about mu are formed once, as moment_between_cov forms
        # them, and reflected about zero, where negation is exact; a
        # reflection about mu itself rounds, so it is not a test of Sigma
        data = request.getfixturevalue(fixture)
        mu = np.array(mu)
        base, base_truncated = moment_between_cov(data, mu)
        zero = np.zeros(data.p)
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.choice([-1.0, 1.0], size=data.n_studies)
            flipped = replace(data, Y=v[:, None] * (data.Y - mu))
            sigma, truncated = moment_between_cov(flipped, zero)
            assert sigma.tobytes() == base.tobytes() and truncated == base_truncated

    def test_missing_outcomes_match_pair_loop(self):
        # half the studies miss outcome 3 and the other half outcome 1,
        # two more miss outcome 2: each entry averages over the studies
        # that observe both of its outcomes, and outcomes 1 and 3, never
        # observed together, have no terms and read 0. Large residuals
        # keep the matrix away from truncation, so it is the raw average
        rng = np.random.default_rng(8)
        n = 12
        Y = rng.normal(scale=2.0, size=(n, 3))
        S = np.tile(np.diag([0.1, 0.2, 0.15]), (n, 1, 1))
        observed = np.ones((n, 3), dtype=bool)
        observed[: n // 2, 2] = False
        observed[n // 2 :, 0] = False
        observed[[0, 7], 1] = False
        mu = np.array([0.1, -0.2, 0.3])
        sigma, truncated = moment_between_cov(Dataset.from_arrays(Y, S, observed=observed), mu)
        oracle = np.zeros((3, 3))
        for j, k in itertools.product(range(3), repeat=2):
            both = [i for i in range(n) if observed[i, j] and observed[i, k]]
            terms = [(Y[i, j] - mu[j]) * (Y[i, k] - mu[k]) - S[i, j, k] for i in both]
            oracle[j, k] = sum(terms) / max(len(both), 1)
        assert not truncated
        assert sigma[0, 2] == sigma[2, 0] == 0.0
        np.testing.assert_allclose(sigma, oracle, rtol=1e-13, atol=0.0)

    def test_unobserved_cells_are_ignored(self, trivariate_missing):
        # NaN in every unobserved outcome and covariance entry gives the
        # same bits as the finite values the fixture holds there
        data = trivariate_missing
        pairs = data.observed[:, :, None] & data.observed[:, None, :]
        filled = Dataset.from_arrays(
            np.where(data.observed, data.Y, np.nan),
            np.where(pairs, data.S, np.nan),
            observed=data.observed,
        )
        mus = np.array([[0.2, 0.0, -0.3], [0.0, 0.0, 0.0], [1.0, -1.0, 0.5]])
        for got, want in zip(moment_between_cov(filled, mus), moment_between_cov(data, mus)):
            assert got.tobytes() == want.tobytes()

    def test_output_is_psd(self, bivariate12):
        sigma, _ = moment_between_cov(bivariate12, np.zeros(2))
        assert np.all(np.linalg.eigvalsh(sigma) >= -1e-12)

    @pytest.mark.parametrize("p", [2, 3])
    def test_stack_equals_single_calls_bitwise(self, p):
        # outcomes at the corners of a cube about zero have sample
        # covariance 4 I, so the raw matrix is diag(-0.1, 1, ...) + d d'
        # for d the distance from the mean: zero gives a negative first
        # diagonal entry, d = e_1 a PSD matrix and d = (0.35, -2, 0, ...)
        # a negative eigenvalue. One stack mixes the three kinds of rows
        Y = 2.0 * np.array(list(itertools.product([-1.0, 1.0], repeat=p)))
        S = np.tile(np.diag([4.1] + [3.0] * (p - 1)), (len(Y), 1, 1))
        data = Dataset.from_arrays(Y, S)
        rng = np.random.default_rng(p)
        kinds = np.zeros((3, p))
        kinds[1, 0] = 1.0
        kinds[2, :2] = (0.35, -2.0)
        mus = np.concatenate([kinds, kinds + rng.normal(scale=0.05, size=(3, p))])
        mus = mus[rng.permutation(6)]
        singles = [moment_between_cov(data, mu) for mu in mus]
        zeroed = [bool((np.diag(sigma) == 0.0).any()) for sigma, _ in singles]
        truncated = [t for _, t in singles]
        assert all(type(t) is bool for t in truncated)
        assert not all(truncated) and any(zeroed)
        assert any(t and not z for t, z in zip(truncated, zeroed))
        for shape in ((6, p), (2, 3, p)):
            sigma, flags = moment_between_cov(data, mus.reshape(shape))
            assert sigma.shape == shape + (p,) and flags.shape == shape[:-1]
            for k, (one, flag) in enumerate(singles):
                assert np.array_equal(sigma.reshape(-1, p, p)[k], one)
                assert flags.reshape(-1)[k] == flag


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
