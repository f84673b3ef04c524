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
from metaperm.model import (
    EPS_PSD,
    RCOND,
    _clip_psd,
    _sym_inverse_flags,
    _weights,
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


def eigh_inverse(V):
    """The eigendecomposition inverse with its flags, at any k: the reference."""
    w, Q = np.linalg.eigh(V)
    scale = np.maximum(w[..., -1], 0.0)
    indefinite = w[..., 0] < -EPS_PSD * np.maximum(1.0, scale)
    keep = w > RCOND * scale[..., None]
    winv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    logdet = np.where(keep, np.log(np.where(keep, w, 1.0)), 0.0).sum(axis=-1)
    W = (Q * winv[..., None, :]) @ np.swapaxes(Q, -1, -2)
    return W, logdet, indefinite, ~keep.all(axis=-1)


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def assert_same_results(got, want):
    for name, a, b in zip(("W", "logdet", "indefinite", "pinv"), got, want):
        assert same_bits(a, b), name


def rotated(eigenvalues, angle):
    c, s = np.cos(angle), np.sin(angle)
    Q = np.array([[c, -s], [s, c]])
    return Q @ np.diag(eigenvalues) @ Q.T


def spd_batch(seed, shape):
    """Random SPD 2x2 blocks, eigenvalue ratio at most 100, scales 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape))
    top = 10.0 ** rng.uniform(-3, 3, n)
    lam = np.stack([top * rng.uniform(0.01, 1.0, n), top], axis=1)
    V = np.stack([rotated(l, a) for l, a in zip(lam, rng.uniform(0, np.pi, n))])
    return V.reshape(shape + (2, 2))


def hard_blocks():
    """2x2 blocks the closed form must leave to eigh."""
    r = 1.0 + 1e-3
    return np.array([
        [[1.0, 1.0], [1.0, 1.0]],                        # rank 1
        rotated([0.0, 2.5], 0.3),                        # rank 1, rotated
        [[1.0, 2.0], [2.0, 1.0]],                        # indefinite
        [[-1.0, 0.0], [0.0, 2.0]],                       # indefinite, a < 0
        [[0.0, 1.0], [1.0, 0.0]],                        # indefinite, zero diagonal
        [[-1.0, 0.2], [0.2, -2.0]],                      # negative definite
        [[1e-12, 0.0], [0.0, -1e-11]],                   # negative, within EPS_PSD
        np.zeros((2, 2)),                                # zero
        [[1.0, 0.0], [0.0, RCOND * r]],                  # just above the cutoff
        [[1.0, 0.0], [0.0, RCOND / r]],                  # just below it
        rotated([RCOND * r, 1.0], 0.7),
        rotated([RCOND / r, 1.0], 0.7),
        [[1.0, 0.0], [0.0, 3.9 * RCOND]],                # just short of the closed form
        [[1e-160, 0.0], [0.0, 1e-160]],                  # det below the normal range
        [[1e200, 0.0], [0.0, 1e200]],                    # det overflows
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, np.inf], [np.inf, 1.0]],
        [[-np.inf, 0.0], [0.0, 1.0]],
    ])


class TestSymInverse:
    def test_one_by_one_is_eigh_bit_for_bit(self):
        values = [2.0, 1.0, 0.37, 1e-300, 0.0, -0.0, -1e-12, -1.0, -3e5, 1e300,
                  np.nan, np.inf, -np.inf, 1e-11]
        V = np.array(values).reshape(2, 7, 1, 1)
        assert_same_results(_sym_inverse_flags(V), eigh_inverse(V))
        assert_same_results(_sym_inverse_flags(V[0, 0]), eigh_inverse(V[0, 0]))
        for v in V.reshape(14, 1, 1):
            assert_same_results(_sym_inverse_flags(v), eigh_inverse(v))

    def test_closed_form_agrees_with_eigh(self):
        V = spd_batch(3, (40, 7))
        W, logdet, indefinite, pinv = _sym_inverse_flags(V)
        W0, logdet0, indefinite0, pinv0 = eigh_inverse(V)
        size = np.abs(W0).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(W - W0) <= 1e-12 * size)
        assert np.all(np.abs(logdet - logdet0) <= 1e-13)
        assert not (indefinite | indefinite0 | pinv | pinv0).any()
        # the closed form, not eigh, produced them
        assert not same_bits(W, W0)

    def test_hard_blocks_are_eigh_bit_for_bit(self):
        V = hard_blocks()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            want = eigh_inverse(V)
            assert_same_results(_sym_inverse_flags(V), want)
            # a single (2, 2) matrix, with no leading axis, takes the same path
            for v in V:
                assert_same_results(_sym_inverse_flags(v), eigh_inverse(v))
        indefinite, pinv = want[2], want[3]
        assert indefinite[[2, 3, 4, 5]].all() and not indefinite[6]
        assert pinv[[0, 1, 7, 9, 11]].all() and not pinv[[8, 10, 12]].any()

    def test_just_past_the_test_takes_the_closed_form(self):
        V = np.stack([np.diag([1.0, 4.1 * RCOND]), rotated([4.1 * RCOND, 1.0], 0.7)])
        W, logdet, indefinite, pinv = _sym_inverse_flags(V)
        W0, logdet0, indefinite0, pinv0 = eigh_inverse(V)
        assert not same_bits(W, W0)
        assert same_bits(indefinite, indefinite0) and same_bits(pinv, pinv0)
        assert np.allclose(W, W0, rtol=1e-5, atol=1e-5 * np.abs(W0).max())
        assert np.allclose(logdet, logdet0, rtol=0, atol=1e-5)

    def test_mixed_batch_rows_get_their_own_results(self):
        rng = np.random.default_rng(5)
        V = np.concatenate([hard_blocks(), spd_batch(8, (20,))])[rng.permutation(40)]
        V = V.reshape(4, 10, 2, 2)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            batch = _sym_inverse_flags(V)
            for i, j in np.ndindex(4, 10):
                alone = _sym_inverse_flags(V[i, j])
                assert_same_results([part[i, j] for part in batch], alone)


class TestClipPsd:
    def test_each_matrix_is_clipped_alone(self):
        M = np.stack([
            rotated([0.5, 2.0], 0.4),                    # PSD
            [[1.0, 2.0], [2.0, 1.0]],                    # indefinite
            np.zeros((2, 2)),                            # zero
            rotated([-1e-3, 1.0], 1.1),                  # indefinite, slightly
            np.diag([0.0, 1.0]),                         # PSD, singular
            [[-1.0, 0.0], [0.0, -2.0]],                  # negative definite
        ]).reshape(2, 3, 2, 2)
        before = M.copy()
        w = _clip_psd(M)
        assert same_bits(w, np.linalg.eigh(before)[0])
        for i, j in np.ndindex(2, 3):
            alone = before[i, j].copy()
            assert same_bits(_clip_psd(alone), w[i, j])
            assert same_bits(alone, M[i, j])
        negative = w[..., 0] < 0.0
        assert negative.tolist() == [[False, True, False], [True, False, True]]
        # matrices without a negative eigenvalue are left as they are
        assert same_bits(M[~negative], before[~negative])
        assert np.allclose(M[0, 1], [[1.5, 1.5], [1.5, 1.5]], rtol=0, atol=1e-15)
        assert np.allclose(M[1, 0], rotated([0.0, 1.0], 1.1), rtol=0, atol=1e-15)
        assert np.allclose(M[1, 2], 0.0, rtol=0, atol=0)
        assert (np.linalg.eigvalsh(M) >= -1e-15).all()


class TestWeightsOneRule:
    # a pass at one Sigma (the scalar fits, model_terms) and a row-batched
    # pass (the refit kernel and the statistics) invert each block by the
    # one rule of _sym_inverse_flags
    def test_scalar_pass_is_row_zero_of_a_row_pass(self, trivariate_missing):
        data = trivariate_missing
        kappa = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.4], [-0.2, 0.4, 1.0]])
        sigma = between_cov(het([0.3, 0.25, 0.35], kappa), UNSTR)
        blocks, indefinite, pinv = _weights(data, sigma)
        assert {g.idx.size for g in data._groups} == {1, 2, 3}
        assert not indefinite and not pinv
        Ys = [g.Y[None] for g in data._groups]
        rows, indefinite, pinv = _weights(data, sigma[None], Ys)
        assert indefinite.shape == (1,) and not indefinite[0] and not pinv[0]
        for (g, _, W, logdet), (_, _, W_row, logdet_row) in zip(blocks, rows):
            assert same_bits(W_row[0], W) and same_bits(logdet_row[0], logdet)
            V = g.S + sigma[np.ix_(g.idx, g.idx)]
            if g.idx.size == 2:
                a, b, c = V[:, 0, 0], V[:, 1, 0], V[:, 1, 1]
                det = a * c - b * b
                closed = np.stack([c, -b, -b, a], axis=-1).reshape(V.shape) / det[:, None, None]
                assert same_bits(W, closed) and same_bits(logdet, np.log(det))
            else:
                W0, logdet0, _, _ = eigh_inverse(V)
                assert same_bits(W, W0) and same_bits(logdet, logdet0)


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
