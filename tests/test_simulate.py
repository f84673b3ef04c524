"""Tests for scenario presets, data generators, and coverage experiments."""

import numpy as np
import pytest
from scipy import integrate
from scipy.special import logit
from scipy.stats import chi2

import metaperm.simulate
from metaperm import (
    NonConvergenceError,
    Scenario,
    apply_missingness,
    coverage_experiment,
    generate,
    generate_diagnostic,
    generate_gaussian,
    load_scenarios,
    monte_carlo_se,
)
from metaperm.simulate import CHI2_SCALE, VAR_RANGE


def datasets_equal(a, b):
    return (
        np.array_equal(a.Y, b.Y)
        and np.array_equal(a.S, b.S)
        and np.array_equal(a.observed, b.observed)
    )


class TestScenario:
    def test_gaussian_constructor(self):
        scn = Scenario.gaussian("g", n_studies=8, p=2, tau_sq=0.04, kappa=0.5, rho=0.2)
        assert scn.kind == "gaussian_bivariate"
        assert scn.mu == (0.0, 0.0)
        assert scn.tau == (0.2, 0.2)
        np.testing.assert_allclose(scn.sigma, [[0.04, 0.02], [0.02, 0.04]], rtol=1e-12)

    def test_trivariate_sigma(self):
        scn = Scenario(
            name="t",
            kind="gaussian_trivariate",
            n_studies=10,
            mu=(0.0, 0.0, 0.0),
            tau=(0.1, 0.2, 0.3),
            kappa=0.4,
        )
        assert scn.p == 3
        assert scn.sigma[0, 1] == pytest.approx(0.4 * 0.1 * 0.2, rel=1e-12)
        assert scn.sigma[1, 2] == pytest.approx(0.4 * 0.2 * 0.3, rel=1e-12)
        np.testing.assert_allclose(np.diag(scn.sigma), [0.01, 0.04, 0.09], rtol=1e-12)

    def test_diagnostic_constructor(self):
        scn = Scenario.diagnostic("d", n_studies=8, delta=(0.8, 0.25), tau=(0.3, 0.4), kappa=0.2)
        assert scn.kind == "diagnostic_binomial"
        assert scn.mu[0] == pytest.approx(float(logit(0.8)), rel=1e-12)
        assert scn.mu[1] == pytest.approx(np.log(1.0 / 3.0), rel=1e-12)
        assert scn.delta == (0.8, 0.25)

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            Scenario(name="x", kind="poisson", n_studies=5, mu=(0, 0), tau=(1, 1), kappa=0.0)
        with pytest.raises(ValueError, match="length"):
            Scenario(name="x", kind="gaussian_bivariate", n_studies=5, mu=(0,), tau=(1, 1), kappa=0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            Scenario(name="x", kind="gaussian_bivariate", n_studies=5, mu=(0, 0), tau=(-1, 1), kappa=0.0)
        with pytest.raises(ValueError, match="kappa"):
            Scenario(name="x", kind="gaussian_bivariate", n_studies=5, mu=(0, 0), tau=(1, 1), kappa=1.0)
        with pytest.raises(ValueError, match="rho"):
            Scenario(name="x", kind="gaussian_bivariate", n_studies=5, mu=(0, 0), tau=(1, 1), kappa=0.0, rho=-1.0)
        with pytest.raises(ValueError, match="two studies"):
            Scenario(name="x", kind="gaussian_bivariate", n_studies=1, mu=(0, 0), tau=(1, 1), kappa=0.0)
        with pytest.raises(ValueError, match="missing rates"):
            Scenario(
                name="x", kind="gaussian_bivariate", n_studies=5,
                mu=(0, 0), tau=(1, 1), kappa=0.0, missing_rates=(0.2, 1.0),
            )
        with pytest.raises(ValueError, match="size"):
            Scenario.diagnostic("x", n_studies=5, delta=(0.5, 0.5), tau=(1, 1), kappa=0.0, size_low=10, size_high=5)
        with pytest.raises(ValueError, match="0, 1"):
            Scenario.diagnostic("x", n_studies=5, delta=(0.5, 1.5), tau=(1, 1), kappa=0.0)


class TestGenerateGaussian:
    def test_deterministic(self):
        scn = Scenario.gaussian("g", n_studies=10, p=2, tau_sq=0.04, kappa=0.3, rho=0.2)
        assert datasets_equal(generate_gaussian(scn, 3), generate_gaussian(scn, 3))

    def test_shapes_and_within_study_structure(self):
        scn = Scenario.gaussian("g", n_studies=10, p=3, tau_sq=0.04, kappa=0.3, rho=0.25)
        data = generate_gaussian(scn, 3)
        assert data.n_studies == 10 and data.p == 3
        lo, hi = VAR_RANGE
        assert data.observed.all()
        for S in data.S:
            d = np.diag(S)
            assert np.all((d >= lo) & (d <= hi))
            # off-diagonals are exactly rho * s_j * s_k
            s = np.sqrt(d)
            np.testing.assert_allclose(
                S, 0.25 * np.outer(s, s) + np.diag(d - 0.25 * d), rtol=1e-12
            )

    def test_variance_draws_match_truncated_chi2_mean(self):
        # oracle: E[c X | lo <= c X <= hi] with X chi-square(1), by quadrature
        a, b = VAR_RANGE[0] / CHI2_SCALE, VAR_RANGE[1] / CHI2_SCALE
        num, _ = integrate.quad(lambda x: x * chi2.pdf(x, 1), a, b)
        expected = CHI2_SCALE * num / (chi2.cdf(b, 1) - chi2.cdf(a, 1))
        scn = Scenario.gaussian("g", n_studies=10, p=2, tau_sq=0.04, kappa=0.3, rho=0.2)
        draws = []
        for seed in range(200):
            data = generate_gaussian(scn, seed)
            draws.extend(S[j, j] for S in data.S for j in range(2))
        assert np.mean(draws) == pytest.approx(expected, rel=0.02)

    def test_wrong_kind_rejected(self):
        scn = Scenario.diagnostic("d", n_studies=8, delta=(0.8, 0.25), tau=(0.3, 0.4), kappa=0.2)
        with pytest.raises(ValueError, match="Gaussian"):
            generate_gaussian(scn, 1)


class TestGenerateDiagnostic:
    def test_deterministic_and_labeled(self):
        scn = Scenario.diagnostic("d", n_studies=8, delta=(0.8, 0.25), tau=(0.3, 0.4), kappa=0.2)
        data = generate_diagnostic(scn, 4)
        assert datasets_equal(data, generate_diagnostic(scn, 4))
        assert data.labels == ("sens", "fpr")
        assert data.scales == ("logit", "logit")
        for S in data.S:
            assert S[0, 1] == 0.0  # independent binomials
            assert np.all(np.diag(S) > 0.0)

    def test_corner_counts_stay_finite(self):
        # success probability near one forces counts at the boundary, so
        # the continuity correction must keep every logit finite
        scn = Scenario.diagnostic(
            "x", n_studies=6, delta=(0.9999, 0.5), tau=(0.1, 0.1), kappa=0.0,
            size_low=50, size_high=60,
        )
        for seed in range(40):
            data = generate_diagnostic(scn, seed)
            for y, S in zip(data.Y, data.S):
                assert np.all(np.isfinite(y))
                assert np.all(np.diag(S) > 0.0)

    def test_wrong_kind_rejected(self):
        scn = Scenario.gaussian("g", n_studies=8, p=2, tau_sq=0.04, kappa=0.3, rho=0.0)
        with pytest.raises(ValueError, match="binomial"):
            generate_diagnostic(scn, 1)


@pytest.fixture(scope="module")
def complete():
    scn = Scenario.gaussian("g", n_studies=40, p=2, tau_sq=0.04, kappa=0.3, rho=0.0)
    return generate_gaussian(scn, 1)


class TestApplyMissingness:
    def test_invariants_hold(self, complete):
        masked = apply_missingness(complete, (0.3, 0.3), seed=7)
        obs = masked.observed
        assert obs.any(axis=1).all()  # no study fully masked
        assert obs.any(axis=0).all()  # every outcome somewhere
        frac = 1.0 - obs.mean()
        assert 0.05 < frac < 0.45
        # outcomes and covariances are untouched, only masks change
        assert np.array_equal(complete.Y, masked.Y) and np.array_equal(complete.S, masked.S)

    def test_deterministic(self, complete):
        a = apply_missingness(complete, (0.3, 0.3), seed=7)
        b = apply_missingness(complete, (0.3, 0.3), seed=7)
        assert datasets_equal(a, b)

    def test_composes_with_existing_masks(self, complete):
        once = apply_missingness(complete, (0.3, 0.3), seed=7)
        twice = apply_missingness(once, (0.2, 0.2), seed=9)
        assert np.all(twice.observed <= once.observed)

    def test_zero_rates_return_input(self, complete):
        assert apply_missingness(complete, (0.0, 0.0), seed=1) is complete

    def test_validation(self, complete):
        with pytest.raises(ValueError, match="rates"):
            apply_missingness(complete, (0.3,), seed=1)
        with pytest.raises(ValueError, match="rates"):
            apply_missingness(complete, (0.3, 1.0), seed=1)


class TestGenerate:
    def test_dispatch_and_masking(self):
        scn = Scenario.gaussian(
            "m", n_studies=12, p=3, tau_sq=0.024, kappa=0.7, rho=0.0,
            missing_rates=(0.25, 0.25, 0.5),
        )
        data = generate(scn, 5)
        assert data.p == 3
        n_masked = int((~data.observed).sum())
        assert n_masked > 0

    def test_seed_types_agree(self):
        scn = Scenario.gaussian(
            "m", n_studies=12, p=3, tau_sq=0.024, kappa=0.7, rho=0.0,
            missing_rates=(0.25, 0.25, 0.5),
        )
        assert datasets_equal(generate(scn, 5), generate(scn, np.random.SeedSequence(5)))

    def test_sequence_seed_not_advanced(self):
        scn = load_scenarios()["gauss3m-s2"]
        ss = np.random.SeedSequence(20240101).spawn(1)[0]
        first = generate(scn, ss)
        assert datasets_equal(first, generate(scn, ss))
        assert ss.n_children_spawned == 0

    @pytest.mark.parametrize("fresh", [
        lambda: 7,
        lambda: np.random.SeedSequence(7),
        lambda: np.random.SeedSequence(20240101).spawn(3)[2],
    ])
    def test_streams_are_the_spawned_children(self, fresh):
        # the datasets of earlier releases, which spawned two children
        scn = load_scenarios()["gauss3m-s2"]
        seed = fresh()
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        gen_seed, miss_seed = ss.spawn(2)
        expected = apply_missingness(
            generate_gaussian(scn, gen_seed), scn.missing_rates, miss_seed
        )
        assert datasets_equal(generate(scn, fresh()), expected)

    def test_binomial_dispatch(self):
        scn = Scenario.diagnostic("d", n_studies=8, delta=(0.8, 0.25), tau=(0.3, 0.4), kappa=0.2)
        assert generate(scn, 2).labels == ("sens", "fpr")


class TestMonteCarloSe:
    def test_formula(self):
        assert monte_carlo_se(0.5, 100) == pytest.approx(0.05, rel=1e-12)
        assert monte_carlo_se(0.0, 50) == 0.0
        assert monte_carlo_se(0.95, 500) == pytest.approx(
            np.sqrt(0.95 * 0.05 / 500), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_se(-0.1, 100)
        with pytest.raises(ValueError):
            monte_carlo_se(1.1, 100)
        with pytest.raises(ValueError):
            monte_carlo_se(0.5, 0)


class TestLoadScenarios:
    def test_packaged_manifest(self):
        scns = load_scenarios()
        assert len(scns) == 98
        s1 = scns["gauss2-s1"]
        assert s1.kind == "gaussian_bivariate"
        assert s1.n_studies == 8
        assert s1.kappa == 0.7
        assert s1.rho == 0.0
        assert s1.tau[0] == pytest.approx(np.sqrt(0.024), rel=1e-12)

    def test_acceptance_presets_present(self):
        scns = load_scenarios()
        joint = scns["acceptance-joint"]
        assert joint.kind == "diagnostic_binomial"
        assert joint.n_studies == 8
        assert joint.delta == (0.664, 0.236)
        assert joint.tau == (0.558, 0.687)
        assert joint.kappa == 0.676
        missing = scns["acceptance-missing"]
        assert missing.kind == "gaussian_trivariate"
        assert missing.n_studies == 12
        assert missing.tau == tuple([pytest.approx(np.sqrt(0.024))] * 3)
        assert missing.kappa == 0.7
        assert missing.missing_rates == (0.25, 0.25, 0.5)

    def test_custom_manifest_round_trip(self, tmp_path):
        path = tmp_path / "scn.csv"
        path.write_text(
            "name,kind,n_studies,delta1,delta2,tau1,tau2,tausq,kappa,rho,"
            "miss1,miss2,miss3,size_low,size_high\n"
            "mini-g,gaussian_bivariate,6,,,,,0.04,0.5,0.1,,,,,\n"
            "mini-d,diagnostic_binomial,7,0.7,0.3,0.2,0.25,,0.4,,,,,30,90\n"
        )
        scns = load_scenarios(path)
        assert set(scns) == {"mini-g", "mini-d"}
        assert scns["mini-g"].rho == 0.1
        assert scns["mini-d"].size_low == 30 and scns["mini-d"].size_high == 90

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "name,kind,n_studies,delta1,delta2,tau1,tau2,tausq,kappa,rho,"
            "miss1,miss2,miss3,size_low,size_high\n"
            "bad,negative_binomial,6,,,,,0.04,0.5,0.1,,,,,\n"
        )
        with pytest.raises(ValueError, match="kind"):
            load_scenarios(path)


@pytest.fixture(scope="module")
def gauss_small():
    return load_scenarios()["gauss2-s1"]


class TestCoverageExperiment:
    def test_joint_moment_smoke(self, gauss_small):
        rep = coverage_experiment(gauss_small, "t2", reps=100, seed=11)
        assert rep.method == "perm-t2"
        assert rep.target == "joint"
        assert rep.component is None
        assert rep.replications == 100
        assert rep.non_convergence == 0
        assert 0.85 <= rep.coverage <= 1.0
        assert rep.monte_carlo_se == pytest.approx(
            np.sqrt(rep.coverage * (1 - rep.coverage) / 100), rel=1e-12
        )

    def test_wald_marginal_target(self, gauss_small):
        rep = coverage_experiment(
            gauss_small, "ml", reps=100, seed=11, target="marginal", component=1
        )
        assert rep.method == "ml-wald"
        assert rep.target == "marginal"
        assert rep.component == 1
        assert 0.80 <= rep.coverage <= 1.0

    def test_failures_are_excluded_and_counted(self, gauss_small, monkeypatch):
        real = metaperm.simulate.fit_ml
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise NonConvergenceError("forced failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(metaperm.simulate, "fit_ml", flaky)
        rep = coverage_experiment(gauss_small, "ml", reps=120, seed=11)
        assert rep.non_convergence == 40
        assert rep.replications == 80

    def test_validation(self, gauss_small):
        with pytest.raises(ValueError, match="100"):
            coverage_experiment(gauss_small, "t2", reps=99)
        with pytest.raises(ValueError, match="unknown method"):
            coverage_experiment(gauss_small, "bayes", reps=100)
        with pytest.raises(ValueError, match="target"):
            coverage_experiment(gauss_small, "t2", reps=100, target="both")
        with pytest.raises(ValueError, match="component"):
            coverage_experiment(gauss_small, "t3", reps=100, target="joint")
        with pytest.raises(ValueError, match="component"):
            coverage_experiment(gauss_small, "t1", reps=100, target="marginal")

    @pytest.mark.parametrize("component", [2, -1])
    @pytest.mark.parametrize("method, target", [("t3", None), ("ml", "marginal")])
    def test_rejects_component_out_of_range(self, gauss_small, monkeypatch, method, target,
                                            component):
        # checked before any replicate is generated
        monkeypatch.setattr(metaperm.simulate, "generate", None)
        with pytest.raises(ValueError, match="out of range"):
            coverage_experiment(
                gauss_small, method, reps=100, target=target, component=component
            )

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_rejects_alpha_outside_unit_interval(self, gauss_small, monkeypatch, alpha):
        # alpha = 1.5 used to report coverage 0.0
        monkeypatch.setattr(metaperm.simulate, "generate", None)
        with pytest.raises(ValueError, match="alpha"):
            coverage_experiment(gauss_small, "t2", reps=100, alpha=alpha)

    def test_report_rows(self, gauss_small):
        rep = coverage_experiment(gauss_small, "t2", reps=100, seed=11)
        row = rep.to_row()
        assert len(row) == len(rep.header())
        assert row[0] == "gauss2-s1"
        assert row[3] == ""  # joint target leaves the component blank
