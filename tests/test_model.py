"""Data containers, covariance structures, likelihood, score, information."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from metaperm import (
    CovStructure,
    DataError,
    Dataset,
    HetParams,
    between_cov,
    marginal_information,
    model_terms,
)

UNSTR = CovStructure.unstructured()


def het(tau, kappa=None):
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    if kappa is None:
        kappa = np.eye(tau.size)
    return HetParams(tau=tau, kappa=np.asarray(kappa, dtype=float))


def one_study_dataset(y, s2):
    return Dataset.from_arrays(np.atleast_2d(y), np.asarray(s2)[None, ...])


def terms(data, mu, h):
    return model_terms(data, np.asarray(mu, dtype=float), between_cov(h, UNSTR))


class TestStudyValidation:
    def test_defaults_to_fully_observed(self):
        data = one_study_dataset([0.1, 0.2], np.eye(2))
        assert data.observed.all() and data.p == 2 and data.observed.sum() == 2

    def test_rejects_nonpositive_observed_variance(self):
        with pytest.raises(DataError):
            one_study_dataset([0.1], [[0.0]])
        with pytest.raises(DataError):
            one_study_dataset([0.1, 0.2], [[1.0, 0.0], [0.0, -0.5]])

    def test_rejects_asymmetric_observed_block(self):
        with pytest.raises(DataError):
            one_study_dataset([0.1, 0.2], [[1.0, 0.5], [0.1, 1.0]])

    def test_rejects_non_psd_observed_block(self):
        # correlation magnitude above 1 makes the block indefinite
        with pytest.raises(DataError):
            one_study_dataset([0.0, 0.0], [[1.0, 1.5], [1.5, 1.0]])

    def test_rejects_empty_mask(self):
        with pytest.raises(DataError):
            Dataset.from_arrays([[0.1]], [[[1.0]]], observed=[[False]])

    def test_ignores_unobserved_garbage(self):
        # a second, complete study observes outcome 2
        data = Dataset.from_arrays(
            [[0.5, np.nan], [0.1, 0.2]],
            [[[0.2, 0.0], [0.0, -9.0]], np.eye(2)],
            observed=[[True, False], [True, True]],
        )
        assert data.observed[0].sum() == 1

    def test_error_names_the_failing_study(self):
        # only study c's block is indefinite, and its mask group comes second
        S = np.stack([np.eye(2)] * 4)
        S[2] = [[1.0, 1.5], [1.5, 1.0]]
        observed = np.array([[True, False], [True, True], [True, True], [True, False]])
        with pytest.raises(DataError, match="^study c: observed covariance block not PSD$"):
            Dataset.from_arrays(np.zeros((4, 2)), S, observed=observed, ids=list("abcd"))

    def test_error_names_the_first_failing_study(self):
        # b and c both fail; c's mask group comes first, b in study order
        S = np.stack([np.eye(3)] * 3)
        S[1:, 0, 1] = S[1:, 1, 0] = 1.5
        observed = np.array([[True, True, False], [True, True, True], [True, True, False]])
        with pytest.raises(DataError, match="^study b: observed covariance block not PSD$"):
            Dataset.from_arrays(np.zeros((3, 3)), S, observed=observed, ids=list("abc"))


class TestDataset:
    def test_requires_every_outcome_somewhere(self):
        with pytest.raises(DataError):
            Dataset.from_arrays(
                [[0.1, 0.0], [0.2, 0.0]],
                np.stack([np.eye(2)] * 2),
                observed=[[True, False], [True, False]],
            )

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DataError):
            Dataset.from_arrays([[0.1], [0.1]], np.stack([np.eye(2)] * 2))

    def test_groups_keep_first_appearance_order(self, trivariate_missing):
        groups = trivariate_missing._groups
        assert [g.idx.tolist() for g in groups] == [
            [0, 1, 2], [0, 1], [1, 2], [0], [1], [0, 2]
        ]
        assert [g.members.tolist() for g in groups] == [
            [0, 2, 5, 6, 9], [1], [3], [4], [7], [8]
        ]
        for g in groups:
            np.testing.assert_array_equal(g.Y, trivariate_missing.Y[np.ix_(g.members, g.idx)])

    def test_default_labels_and_scales(self, bivariate6):
        assert bivariate6.labels == ("y1", "y2")
        assert bivariate6.scales == ("identity", "identity")
        assert bivariate6.complete

    def test_rejects_unknown_scale(self):
        with pytest.raises(DataError):
            Dataset.from_arrays(
                [[0.1]], [[[1.0]]], scales=("probit",)
            )


class TestBetweenCov:
    def test_zero_tau_gives_zero_matrix(self):
        assert np.array_equal(between_cov(het([0.0, 0.0]), UNSTR), np.zeros((2, 2)))

    def test_compound_symmetry_five_outcomes(self):
        structure = CovStructure.cs1(0.5)
        sigma = between_cov(HetParams(tau=np.full(5, 0.114)), structure)
        assert np.allclose(np.diag(sigma), 0.114**2)
        off = sigma[~np.eye(5, dtype=bool)]
        assert np.allclose(off, 0.5 * 0.114**2)

    def test_unstructured_off_diagonal_product(self):
        kappa = np.array([[1.0, 0.890], [0.890, 1.0]])
        sigma = between_cov(het([0.558, 0.687], kappa), UNSTR)
        assert np.isclose(sigma[0, 1], 0.890 * 0.558 * 0.687, rtol=1e-12)
        assert np.isclose(sigma[0, 0], 0.558**2, rtol=1e-12)


class TestStudyWeights:
    # a one-study dataset's information is that study's marginal weight
    # matrix (Sigma + S_i)^{-1}
    def test_diagonal_inverse(self):
        data = one_study_dataset([0.0, 0.0], np.diag([0.04, 0.04]))
        t = terms(data, np.zeros(2), het([0.0, 0.0]))
        assert np.allclose(t.information, np.diag([25.0, 25.0]))
        assert not t.used_pinv

    def test_two_by_two_closed_form(self):
        S = [[2.0, 1.0], [1.0, 2.0]]
        t = terms(one_study_dataset([0.0, 0.0], S), np.zeros(2), het([0.0, 0.0]))
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        assert np.allclose(t.information, expected, atol=1e-14)
        assert not t.used_pinv

    def test_singular_marginal_uses_pseudoinverse(self):
        # rank-1 within-study block with zero heterogeneity
        V = np.array([[1.0, 1.0], [1.0, 1.0]])
        t = terms(one_study_dataset([0.0, 0.0], V), np.zeros(2), het([0.0, 0.0]))
        W = t.information
        assert t.used_pinv
        assert np.allclose(W @ V @ W, W, atol=1e-12)


class TestLogLikelihood:
    def test_standard_normal_at_zero(self):
        data = one_study_dataset([0.0], [[1.0]])
        ll = terms(data, [0.0], het([0.0])).loglik
        assert np.isclose(ll, -0.5 * np.log(2 * np.pi), rtol=1e-14)

    def test_doubling_dataset_doubles_loglik(self, bivariate6):
        kappa = np.array([[1.0, 0.3], [0.3, 1.0]])
        h = het([0.2, 0.25], kappa)
        mu = np.array([0.3, -0.1])
        ll1 = terms(bivariate6, mu, h).loglik
        Y, S = bivariate6.Y, bivariate6.S
        doubled = Dataset.from_arrays(
            np.vstack([Y, Y]), np.concatenate([S, S], axis=0)
        )
        ll2 = terms(doubled, mu, h).loglik
        assert np.isclose(ll2, 2 * ll1, rtol=1e-12)

    def test_matches_direct_density_product(self, bivariate6):
        kappa = np.array([[1.0, 0.4], [0.4, 1.0]])
        h = het([0.3, 0.35], kappa)
        mu = np.array([0.2, 0.1])
        sigma = between_cov(h, UNSTR)
        direct = sum(
            multivariate_normal.logpdf(y, mean=mu, cov=sigma + S)
            for y, S in zip(bivariate6.Y, bivariate6.S)
        )
        assert np.isclose(terms(bivariate6, mu, h).loglik, direct, rtol=1e-12)

    def test_missing_blocks_use_observed_submodel(self, trivariate_missing):
        kappa = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])
        h = het([0.3, 0.3, 0.3], kappa)
        mu = np.array([0.1, 0.0, -0.1])
        sigma = between_cov(h, UNSTR)
        direct = 0.0
        data = trivariate_missing
        for y, S, observed in zip(data.Y, data.S, data.observed):
            idx = np.flatnonzero(observed)
            sel = np.ix_(idx, idx)
            direct += multivariate_normal.logpdf(
                y[idx], mean=mu[idx], cov=(sigma + S)[sel]
            )
        ll = terms(trivariate_missing, mu, h).loglik
        assert np.isclose(ll, direct, rtol=1e-12)


class TestScore:
    def test_zero_residual_gives_zero_score(self):
        data = one_study_dataset([0.4, -0.1], np.diag([0.1, 0.2]))
        U = terms(data, [0.4, -0.1], het([0.2, 0.2])).score
        assert np.allclose(U, 0.0, atol=1e-14)

    def test_sign_flip_negates_score(self, bivariate6):
        h = het([0.2, 0.3], np.array([[1.0, 0.5], [0.5, 1.0]]))
        mu = np.array([0.1, 0.1])
        U = terms(bivariate6, mu, h).score
        flipped = Dataset.from_arrays(2 * mu - bivariate6.Y, bivariate6.S)
        assert np.allclose(terms(flipped, mu, h).score, -U, atol=1e-12)

    def test_matches_finite_difference_gradient(self, trivariate_missing):
        kappa = np.array([[1.0, 0.2, -0.1], [0.2, 1.0, 0.3], [-0.1, 0.3, 1.0]])
        h = het([0.25, 0.3, 0.2], kappa)
        mu = np.array([0.15, -0.05, 0.2])
        U = terms(trivariate_missing, mu, h).score
        step = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            fd = (
                terms(trivariate_missing, mu + e, h).loglik
                - terms(trivariate_missing, mu - e, h).loglik
            ) / (2 * step)
            assert abs(fd - U[j]) < 1e-6 * max(1.0, abs(U[j]))


class TestInformation:
    def test_independent_of_mu(self, bivariate6):
        h = het([0.2, 0.2], np.array([[1.0, 0.1], [0.1, 1.0]]))
        I1 = terms(bivariate6, np.zeros(bivariate6.p), h).information
        assert np.allclose(I1, I1.T, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(I1) > 0)

    def test_identical_studies_sum_weights(self):
        S = np.array([[0.2, 0.05], [0.05, 0.3]])
        data = Dataset.from_arrays(np.zeros((4, 2)), np.stack([S] * 4))
        h = het([0.1, 0.1], np.eye(2))
        W = terms(one_study_dataset(np.zeros(2), S), np.zeros(2), h).information
        assert np.allclose(terms(data, np.zeros(data.p), h).information, 4 * W, atol=1e-12)

    def test_partial_study_scatters_to_observed_entries(self):
        data = Dataset.from_arrays(
            [[0.1, 0.2], [0.3, 0.0]],
            [np.diag([0.5, 0.5]), np.diag([0.25, 1.0])],
            observed=[[True, True], [True, False]],
            ids=("a", "b"),
        )
        I = terms(data, np.zeros(2), het([0.0, 0.0])).information
        # study b contributes 1/0.25 = 4 only at entry (0, 0)
        assert np.isclose(I[0, 0], 2.0 + 4.0)
        assert np.isclose(I[1, 1], 2.0)
        assert np.isclose(I[0, 1], 0.0)


class TestMarginalInformation:
    def test_diagonal_information(self):
        J, used = marginal_information(np.diag([3.0, 7.0]), 0)
        assert J == 3.0 and not used

    def test_two_by_two_schur(self):
        J, _ = marginal_information(np.array([[2.0, 1.0], [1.0, 2.0]]), 0)
        assert np.isclose(J, 1.5, rtol=1e-14)

    def test_scalar_information(self):
        J, _ = marginal_information(np.array([[4.0]]), 0)
        assert J == 4.0

    def test_equals_reciprocal_inverse_diagonal(self, trivariate_missing):
        h = het([0.3, 0.25, 0.35], np.eye(3))
        I = terms(trivariate_missing, np.zeros(trivariate_missing.p), h).information
        Iinv = np.linalg.inv(I)
        for j in range(3):
            J, _ = marginal_information(I, j)
            assert np.isclose(J, 1.0 / Iinv[j, j], rtol=1e-10)


class TestCovStructure:
    def test_parse_round_trip(self):
        assert CovStructure.parse("unstructured") == CovStructure.unstructured()
        assert CovStructure.parse("cs:0.5") == CovStructure.cs(0.5)
        assert CovStructure.parse("cs1:-0.25") == CovStructure.cs1(-0.25)

    def test_parse_rejects_bad_tokens(self):
        for token in ("cs", "cs:", "cs:2.0", "cs1:1.0", "diag", "cs:abc"):
            with pytest.raises(ValueError):
                CovStructure.parse(token)

    def test_free_parameter_counts(self):
        p = 4
        assert CovStructure.unstructured().n_free(p) == 4 + 6
        assert CovStructure.cs(0.3).n_free(p) == 4
        assert CovStructure.cs1(0.3).n_free(p) == 1
