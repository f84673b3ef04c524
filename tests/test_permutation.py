"""Tests for sign-assignment plans, null distributions, and permutation tests."""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metaperm import (
    CovStructure,
    Dataset,
    NonConvergenceError,
    NullDistribution,
    PermutationPlan,
    fit_ml,
    joint_permutation_test,
    marginal_permutation_test,
)
import metaperm.estimators
import metaperm.permutation
from metaperm.estimators import (
    TAU_MIN,
    ZETA_MAX,
    _het_from_free,
    _lbfgs_refit,
    _neg_profiled_free,
    _pack,
    fit_eta_given_mu,
    fit_marginal_null,
    moment_between_cov,
    refit_rows,
    sigma_rows,
)
from metaperm.model import _quad_forms, between_cov
from metaperm.permutation import (
    DEFAULT_B,
    DEFAULT_SEED,
    _flipped_outcomes,
    _observed_statistic,
    _own_outcomes,
    _FoldedPlan,
    _moment_setup,
    _permuted_statistics,
    _refit_distribution,
    _sign_plan,
    _statistics,
    generate_signs,
)

from conftest import make_mvn, make_univariate


def _flip_dataset(data, center, v):
    """The dataset with outcomes reflected by one sign row around the center.

    Uses the expression of _flipped_outcomes, so the packed groups of
    the result equal that row's flipped outcomes bit for bit.
    """
    return replace(data, Y=center + v[:, None] * (data.Y - center))


def _stat_at(data, mu, sigma, component=None):
    """The t1 statistic (component None) or signed t3 root of the data at mu and Sigma."""
    stats, _, _ = _statistics(
        data, _own_outcomes(data), np.asarray(mu, dtype=float)[None], sigma[None], component
    )
    return float(stats[0])


class TestPermutationPlan:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            PermutationPlan(mode="bootstrap")

    def test_random_needs_enough_draws(self):
        with pytest.raises(ValueError, match="100"):
            PermutationPlan.random(n_draws=99, seed=1)
        plan = PermutationPlan.random(n_draws=100, seed=1)
        assert plan.size_for(12) == 100

    def test_random_needs_explicit_seed(self):
        with pytest.raises(ValueError, match="seed"):
            PermutationPlan(mode="random", n_draws=200)

    def test_exhaustive_size_and_cap(self):
        assert PermutationPlan.exhaustive().size_for(5) == 32
        assert PermutationPlan.exhaustive().size_for(20) == 2 ** 20
        # refused from the size alone, before any sign is built
        with pytest.raises(ValueError, match="cap"):
            PermutationPlan.exhaustive().size_for(21)


class TestGenerateSigns:
    def test_binary_order(self):
        # row b flips study i exactly when bit i of b is set
        signs = generate_signs(PermutationPlan.exhaustive(), 3)
        assert signs.shape == (8, 3)
        assert signs[0].tolist() == [1, 1, 1]
        assert signs[1].tolist() == [-1, 1, 1]
        assert signs[6].tolist() == [1, -1, -1]
        assert signs[7].tolist() == [-1, -1, -1]
        assert len({tuple(row) for row in signs}) == 8
        assert set(np.unique(signs)) == {-1, 1}

    def test_random_reproducible(self):
        plan = PermutationPlan.random(n_draws=300, seed=9)
        a = generate_signs(plan, 6)
        b = generate_signs(plan, 6)
        assert np.array_equal(a, b)
        assert set(np.unique(a)) == {-1, 1}

    def test_random_roughly_balanced(self):
        signs = generate_signs(PermutationPlan.random(), 8)
        assert signs.shape == (2400, 8)
        assert abs(signs.astype(float).mean()) < 0.06

    @pytest.mark.parametrize("n", [*range(1, 17), 20])
    def test_exhaustive_matches_broadcast_expression(self, n):
        # the whole-matrix form, taken over blocks of rows so that N = 20
        # does not build its (B, N) int64 temporaries
        plan = PermutationPlan.exhaustive()
        signs = generate_signs(plan, n)
        assert signs.dtype == np.int8 and signs.flags.writeable
        assert signs.shape == (2 ** n, n)
        for start in range(0, 2 ** n, 2 ** 16):
            rows = np.arange(start, min(start + 2 ** 16, 2 ** n), dtype=np.int64)
            expected = (1 - 2 * ((rows[:, None] >> np.arange(n)) & 1)).astype(np.int8)
            assert np.array_equal(signs[rows], expected)
        assert not np.shares_memory(signs, generate_signs(plan, n))

    def test_random_keeps_its_draw_expression(self):
        plan = PermutationPlan.random(n_draws=500, seed=3)
        rng = np.random.default_rng(3)
        expected = (2 * rng.integers(0, 2, size=(500, 7)) - 1).astype(np.int8)
        signs = generate_signs(plan, 7)
        assert signs.dtype == np.int8 and signs.flags.writeable
        assert np.array_equal(signs, expected)

    def test_exhaustive_build_holds_no_int64_matrix(self):
        # a (B, N) int64 temporary alone is 8 MiB at N = 16; the build may
        # hold the int8 matrix and a few B-length vectors, and the cached
        # fold keeps float64 signs and int64 row sums for half the rows,
        # an int64 index and an int8 sign for every row
        n, size = 16, 2 ** 16
        held = 8 * (size // 2) * (n + 1) + 9 * size
        plan = PermutationPlan.exhaustive()
        _sign_plan.cache_clear()
        tracemalloc.start()
        try:
            signs = generate_signs(plan, n)
            _, peak = tracemalloc.get_traced_memory()
            del signs
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            _sign_plan(plan, n)
            plan_held, plan_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            _sign_plan.cache_clear()
        assert peak < size * n + 4 * 8 * size
        assert plan_held - base < 1.05 * held
        assert plan_peak - base < 1.25 * (held + size * n + 8 * size)


def _sorted_threshold(stats, mode, alpha):
    """NullDistribution.threshold as a sort plus searchsorted: for each
    sorted value its p-value, then the largest value still accepted."""
    n = stats.size
    p_above_all = 0.0 if mode == "exhaustive" else 1.0 / (n + 1)
    if p_above_all > alpha:
        return np.inf
    s = np.sort(stats)
    counts = n - np.searchsorted(s, s, side="left")
    if mode == "exhaustive":
        p = counts / n
    else:
        p = (1.0 + counts) / (n + 1)
    ok = p > alpha
    return float(s[ok].max()) if ok.any() else -np.inf


@st.composite
def _null_cases(draw):
    """(statistics, mode, alpha): sizes 1 to 300 and powers of two, values
    from a few integers (many ties) or continuous, and alphas in (0, 1),
    many on the p-value grids of both counting rules."""
    n = draw(st.one_of(st.integers(1, 300), st.sampled_from([2 ** k for k in range(17)])))
    mode = draw(st.sampled_from(["exhaustive", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        stats = rng.integers(0, draw(st.integers(0, 12)) + 1, size=n).astype(float)
    else:
        stats = rng.standard_normal(n)
    k = st.integers(0, n + 1)
    alpha = draw(st.one_of(
        st.floats(0.0, 1.0),
        k.map(lambda c: c / n),
        k.map(lambda c: c / (n + 1)),
        k.map(lambda c: (1.0 + c) / (n + 1)),
    ).filter(lambda a: 0.0 < a < 1.0))
    return stats, mode, alpha


@st.composite
def _counted_cases(draw):
    """(values, counts, mode, alpha): up to 60 values from a few integers
    (many ties) or continuous, with one count for all of them or one
    each, and levels in (0, 1). A count of 0 is a value that stands for no row, as a signed null's
    negated root does where no drawn row folds onto it flipped."""
    n = draw(st.integers(1, 60))
    mode = draw(st.sampled_from(["exhaustive", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        values = rng.integers(0, draw(st.integers(0, 8)) + 1, size=n).astype(float)
    else:
        values = rng.standard_normal(n)
    if draw(st.booleans()):
        counts = draw(st.integers(1, 3))
    else:
        counts = rng.integers(0, 4, size=n)
        counts[rng.integers(n)] += 1
    size = counts * n if isinstance(counts, int) else int(counts.sum())
    k = st.integers(0, size + 1)
    alpha = draw(st.one_of(
        st.floats(0.0, 1.0),
        k.map(lambda c: c / size),
        k.map(lambda c: (1.0 + c) / (size + 1)),
    ).filter(lambda a: 0.0 < a < 1.0))
    return values, counts, mode, alpha


class TestNullDistribution:
    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            NullDistribution(statistics=np.ones((2, 2)), mode="exhaustive")
        with pytest.raises(ValueError):
            NullDistribution(statistics=np.array([]), mode="exhaustive")
        with pytest.raises(ValueError):
            NullDistribution(statistics=np.array([1.0, np.inf]), mode="random")

    def test_exhaustive_counting(self):
        d = NullDistribution(statistics=np.array([5.0, 3.0, 1.0, 1.0]), mode="exhaustive")
        assert d.p_value(1.0) == 1.0  # ties count in
        assert d.p_value(3.0) == 0.5
        assert d.p_value(3.5) == 0.25
        assert d.p_value(6.0) == 0.0
        assert d.accepted(3.0, alpha=0.25)
        assert not d.accepted(3.5, alpha=0.25)

    def test_random_add_one_counting(self):
        d = NullDistribution(statistics=np.array([5.0, 3.0, 1.0, 1.0]), mode="random")
        assert d.p_value(3.0) == 0.6
        assert d.p_value(6.0) == 0.2  # never zero: the observed draw counts

    def test_threshold_dual_to_p_value(self):
        rng = np.random.default_rng(1)
        stats = rng.integers(0, 10, size=37).astype(float)
        probes = np.unique(np.concatenate([stats, stats - 0.5, stats + 0.5]))
        for mode in ("exhaustive", "random"):
            d = NullDistribution(statistics=stats, mode=mode)
            for alpha in (0.01, 0.05, 0.2, 0.5):
                thr = d.threshold(alpha)
                for t in probes:
                    assert d.accepted(t, alpha) == (t <= thr)

    def test_levels_outside_the_unit_interval_rejected(self):
        d = NullDistribution(statistics=np.array([5.0, 3.0, 1.0, 1.0]), mode="exhaustive")
        for alpha in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
                d.threshold(alpha)
            with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
                d.accepted(1.0, alpha)

    def test_threshold_open_when_sample_too_small(self):
        # 9 draws cannot reject at the 5% level: (1+0)/10 > 0.05
        d = NullDistribution(statistics=np.arange(9.0), mode="random")
        assert d.threshold(0.05) == np.inf
        assert d.accepted(1e9, 0.05)

    @settings(max_examples=400, deadline=None)
    @given(case=_null_cases())
    def test_threshold_matches_sort_oracle(self, case):
        stats, mode, alpha = case
        d = NullDistribution(statistics=stats, mode=mode)
        assert d.threshold(alpha) == _sorted_threshold(stats, mode, alpha)

    @settings(max_examples=300, deadline=None)
    @given(case=_counted_cases())
    def test_counted_values_match_their_repeats(self, case):
        # a null that counts each value as often as it occurs gives the
        # p-values and thresholds of the vector that repeats it that often
        values, counts, mode, alpha = case
        d = NullDistribution(values, mode, _counts=counts)
        repeated = NullDistribution(statistics=np.repeat(values, counts), mode=mode)
        assert d.size == repeated.size
        np.testing.assert_array_equal(d.statistics, repeated.statistics)
        thr = d.threshold(alpha)
        assert thr == repeated.threshold(alpha)
        for t in (*values, -np.inf, np.inf):
            assert d.p_value(t) == repeated.p_value(t)
            assert d.accepted(t, alpha) == (t <= thr)



class TestSignPlanCache:
    def _results(self, data, plan, kind):
        if kind == "marginal":
            res = marginal_permutation_test(data, 0.1, 0, plan=plan)
        else:
            res = joint_permutation_test(data, [0.1, -0.1], plan=plan, stat=kind)
        d = res.distribution
        return res.statistic, res.p_value, res.n_failed, d.includes_identity, d.statistics.tobytes()

    def test_interleaved_plans_match_a_cold_cache(self, bivariate5, bivariate6):
        ex = PermutationPlan.exhaustive()
        r1 = PermutationPlan.random(n_draws=100, seed=1)
        r2 = PermutationPlan.random(n_draws=100, seed=2)
        sequence = [
            (bivariate5, ex, "moment"),
            (bivariate5, r1, "moment"),
            (bivariate5, r1, "cml"),
            (bivariate5, r2, "moment"),
            (bivariate6, ex, "moment"),
            (bivariate5, ex, "marginal"),
            (bivariate6, r1, "moment"),
            (bivariate5, r2, "moment"),
            (bivariate5, ex, "cml"),
            (bivariate6, ex, "moment"),
        ]
        cold = []
        for data, plan, kind in sequence:
            _sign_plan.cache_clear()
            cold.append(self._results(data, plan, kind))
        for (data, plan, kind), expected in zip(sequence, cold):
            assert self._results(data, plan, kind) == expected

    @pytest.mark.parametrize(
        "plan", [PermutationPlan.random(n_draws=100, seed=1), PermutationPlan.exhaustive()]
    )
    def test_cached_fold_read_only_and_generate_signs_fresh(self, bivariate5, plan):
        expected = self._results(bivariate5, plan, "moment")
        fold = _sign_plan(plan, 5)
        arrays = (fold.signs, fold.inverse, fold.flips, fold.identity)
        assert fold.signs.dtype == np.float64 and fold.identity.dtype == bool
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            fold.signs[0, 0] = -fold.signs[0, 0]
        # one canonical row per complementary pair, the one whose last
        # study is unflipped, and every row of the plan unfolds from it
        assert (fold.signs[:, -1] == 1).all()
        assert len(np.unique(fold.signs, axis=0)) == len(fold.signs)
        # identity marks exactly the canonical row of all +1
        np.testing.assert_array_equal(fold.identity, (fold.signs == 1).all(axis=1))
        assert np.count_nonzero(fold.identity) == 1
        unfolded = fold.flips[:, None] * fold.signs[fold.inverse]

        fresh = generate_signs(plan, 5)
        assert fresh.dtype == np.int8 and fresh.flags.writeable
        assert not any(np.shares_memory(fresh, a) for a in arrays)
        np.testing.assert_array_equal(unfolded, fresh)
        assert fold.includes_identity == (fresh == 1).all(axis=1).any()
        if plan.mode == "exhaustive":
            # binary order: the first half, and row 2^N - 1 - b is b's complement
            np.testing.assert_array_equal(fold.signs, fresh[:16])
            np.testing.assert_array_equal(fold.inverse, [*range(16), *range(15, -1, -1)])
        fresh[:] = 1
        np.testing.assert_array_equal(generate_signs(plan, 5), unfolded)
        assert self._results(bivariate5, plan, "moment") == expected
        assert not (_sign_plan(plan, 5).signs == 1).all()


@pytest.fixture(scope="module")
def joint_t1_b5(bivariate5):
    return joint_permutation_test(
        bivariate5, [0.0, 0.0], plan=PermutationPlan.exhaustive(), stat="cml"
    )


class TestJointCml:
    def test_identity_and_reflection_rows_exact(self, joint_t1_b5):
        stats = joint_t1_b5.distribution.statistics
        assert stats[0] == joint_t1_b5.statistic
        assert stats[-1] == joint_t1_b5.statistic

    def test_exhaustive_p_is_a_count(self, joint_t1_b5):
        p = joint_t1_b5.p_value
        assert p >= 1.0 / 32.0
        assert abs(p * 32 - round(p * 32)) < 1e-12
        assert joint_t1_b5.n_permutations == 32
        assert joint_t1_b5.stat == "cml"
        assert joint_t1_b5.component is None
        assert joint_t1_b5.n_failed == 0

    def test_statistic_zero_at_ml(self, bivariate5):
        fit = fit_ml(bivariate5)
        value, _, _ = _observed_statistic(bivariate5, fit.mu, None, None)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_statistic_nonnegative(self, bivariate5):
        for mu in ([0.0, 0.0], [1.0, -1.0], [0.4, -0.2]):
            value, _, _ = _observed_statistic(bivariate5, mu, None, None)
            assert value >= 0.0

    def test_scalar_case_rederived(self, univariate10):
        # for one outcome the statistic collapses to U^2 / I with
        # weights at the constrained heterogeneity fit
        mu0 = 0.1
        value, _, cml = _observed_statistic(univariate10, [mu0], None, None)
        y = univariate10.Y[:, 0]
        s2 = univariate10.S[:, 0, 0]
        w = 1.0 / (s2 + cml.het.tau[0] ** 2)
        U = np.sum(w * (y - mu0))
        assert value == pytest.approx(U * U / np.sum(w), rel=1e-12)

    def test_random_plan_deterministic(self, bivariate5):
        plan = PermutationPlan.random(n_draws=120, seed=77)
        r1 = joint_permutation_test(bivariate5, [0.1, 0.1], plan=plan)
        r2 = joint_permutation_test(bivariate5, [0.1, 0.1], plan=plan)
        assert r1.p_value == r2.p_value
        assert np.array_equal(r1.distribution.statistics, r2.distribution.statistics)

    @pytest.mark.parametrize("stat", ["cml", "moment"])
    def test_mu_null_is_a_copy(self, bivariate5, stat):
        # a result must not change when the caller later reuses its array
        mu = np.array([0.1, -0.2])
        plan = PermutationPlan.random(n_draws=100, seed=1)
        res = joint_permutation_test(bivariate5, mu, plan=plan, stat=stat)
        mu[:] = 9.0
        assert res.mu_null.tolist() == [0.1, -0.2]
        assert not res.mu_null.flags.writeable

    def test_bad_inputs_rejected(self, bivariate5):
        with pytest.raises(ValueError, match="length"):
            joint_permutation_test(bivariate5, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="statistic"):
            joint_permutation_test(bivariate5, [0.0, 0.0], stat="wald")


class TestJointMoment:
    def test_three_study_distribution_rederived(self):
        # recompute every permuted statistic from scratch: moment
        # covariance, GLS weights, signed scores, quadratic form
        data = make_mvn(3, 3)
        mu = np.array([0.1, -0.1])
        res = joint_permutation_test(
            data, mu, plan=PermutationPlan.exhaustive(), stat="moment"
        )
        Y, Ss = data.Y, data.S
        R = Y - mu
        raw = R.T @ R / 3 - Ss.mean(axis=0)
        eigvals, eigvecs = np.linalg.eigh(raw)
        sigma = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T
        W = np.array([np.linalg.inv(Ss[i] + sigma) for i in range(3)])
        Iinv = np.linalg.inv(W.sum(axis=0))
        expected = np.empty(8)
        for b in range(8):
            v = np.array([1 - 2 * ((b >> i) & 1) for i in range(3)], dtype=float)
            U = np.einsum("i,ijk,ik->j", v, W, R)
            expected[b] = U @ Iinv @ U
        np.testing.assert_allclose(
            res.distribution.statistics, expected, rtol=1e-12, atol=1e-14
        )
        assert res.p_value == np.mean(expected >= expected[0])

    def test_refuses_a_structure(self, bivariate5):
        # the moment Sigma has no structure to impose; unstructured, named
        # or by default, gives the same bits
        mu = np.array([0.1, -0.1])
        plan = PermutationPlan.exhaustive()
        for structure in (CovStructure.cs(0.5), CovStructure.cs1(0.3)):
            with pytest.raises(ValueError, match="t2 takes no covariance structure"):
                joint_permutation_test(bivariate5, mu, plan=plan, stat="moment", structure=structure)
        base = joint_permutation_test(bivariate5, mu, plan=plan, stat="moment")
        named = joint_permutation_test(
            bivariate5, mu, plan=plan, stat="moment", structure=CovStructure.unstructured()
        )
        assert named.distribution.statistics.tobytes() == base.distribution.statistics.tobytes()
        assert (named.statistic, named.p_value) == (base.statistic, base.p_value)

    def test_orbit_invariance(self, bivariate5):
        # reflecting some studies around the null permutes the orbit, so
        # the exhaustive distribution is unchanged as a multiset
        mu = np.array([0.1, -0.1])
        plan = PermutationPlan.exhaustive()
        base = joint_permutation_test(bivariate5, mu, plan=plan, stat="moment")
        Y = bivariate5.Y.copy()
        Y[[0, 2]] = 2.0 * mu - Y[[0, 2]]
        flipped = Dataset(Y=Y, S=bivariate5.S, ids=bivariate5.ids)
        other = joint_permutation_test(flipped, mu, plan=plan, stat="moment")
        np.testing.assert_allclose(
            np.sort(base.distribution.statistics),
            np.sort(other.distribution.statistics),
            rtol=1e-10,
        )
        assert other.distribution.p_value(base.statistic) == pytest.approx(
            base.p_value, abs=1e-12
        )

    def test_missing_outcomes_keep_sigma_and_null(self, trivariate_missing):
        # with outcomes missing, each entry of Sigma is taken over the
        # studies that observe both of its outcomes; a reflection about
        # mu flips residuals and changes no mask, so Sigma keeps its bits
        # and the exhaustive null is unchanged as a multiset. Residuals
        # about mu are formed once, as moment_between_cov forms them, and
        # reflected about zero, where negation is exact
        data = trivariate_missing
        plan = PermutationPlan.exhaustive()
        zero = np.zeros(3)
        rng = np.random.default_rng(4)
        for mu in ([0.2, 0.0, -0.3], [0.35, 0.15, -0.15], [0.8, 0.6, 0.3]):
            sigma, _ = moment_between_cov(data, mu)
            centered = replace(data, Y=data.Y - np.array(mu))
            base = joint_permutation_test(centered, zero, plan=plan, stat="moment")
            for _ in range(4):
                v = rng.choice([-1.0, 1.0], size=data.n_studies)
                flipped = _flip_dataset(centered, zero, v)
                assert moment_between_cov(flipped, zero)[0].tobytes() == sigma.tobytes()
                other = joint_permutation_test(flipped, zero, plan=plan, stat="moment")
                np.testing.assert_allclose(
                    np.sort(base.distribution.statistics),
                    np.sort(other.distribution.statistics),
                    rtol=1e-10,
                )


class TestQuadForms:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("rows", [1, 2, 65536])
    def test_matches_einsum_bitwise(self, p, rows):
        # region thresholds compare statistics exactly, so the quadratic
        # forms must keep einsum's summation order, not just its value;
        # few rows get many draws, because einsum's order changes with
        # the shape there and a single draw often rounds alike either way.
        # Under a shared inverse (the t2 null) a row's form must not
        # depend on how many rows come with it, since a folded plan scores
        # half the rows: einsum pairs the terms of one or two such rows,
        # so it is the oracle from three rows on
        rng = np.random.default_rng([p, rows])
        for _ in range(200 if rows <= 2 else 1):
            U = rng.standard_normal((rows, p)) * rng.uniform(0.1, 10.0, size=(rows, 1))
            A = rng.standard_normal((rows, p, p))
            Iinv = np.linalg.inv(A @ A.transpose(0, 2, 1) + np.eye(p))
            assert np.array_equal(_quad_forms(U, Iinv), np.einsum("ri,rij,rj->r", U, Iinv, U))
            shared = Iinv[0]
            alone = _quad_forms(U, shared)
            assert np.array_equal(alone, _quad_forms(np.concatenate([U, U, U]), shared)[:rows])
            if rows > 2:
                assert np.array_equal(alone, np.einsum("bi,ij,bj->b", U, shared, U))


def _enumerated_moment_null(data, mu):
    """Exhaustive t2 null built one flip at a time, binary order.

    Each flip reflects the dataset around mu and recomputes the moment
    covariance, which must not move. The statistic then comes from
    direct linear algebra at that covariance, with the flip's signs
    applied to the residuals exactly, so complementary flips tie.
    """
    N, p = data.n_studies, data.p
    sigma, _ = moment_between_cov(data, mu)
    R = data.Y - mu
    W = [np.linalg.inv(data.S[i] + sigma) for i in range(N)]
    info = sum(W)
    stats = np.empty(2 ** N)
    for b in range(2 ** N):
        v = np.array([1.0 - 2.0 * ((b >> i) & 1) for i in range(N)])
        flipped = Dataset(Y=mu + v[:, None] * R, S=data.S, ids=data.ids)
        np.testing.assert_allclose(
            moment_between_cov(flipped, mu)[0], sigma, rtol=1e-12, atol=1e-15
        )
        U = np.zeros(p)
        for i in range(N):
            U += v[i] * (W[i] @ R[i])
        stats[b] = U @ np.linalg.solve(info, U)
    return stats


class TestMomentOracle:
    @pytest.mark.parametrize("name", ["bivariate5", "bivariate6", "univariate6"])
    def test_exhaustive_matches_enumeration(self, request, name):
        data = make_univariate(3, 6) if name == "univariate6" else request.getfixturevalue(name)
        ml = fit_ml(data).mu
        plan = PermutationPlan.exhaustive()
        p_values = set()
        for offset in (0.0, 0.1, -0.25, 0.5, 1.0):
            mu = ml + offset
            res = joint_permutation_test(data, mu, plan=plan, stat="moment")
            # the observed statistic is bit for bit the t1 statistic at the
            # moment Sigma
            sigma, _ = moment_between_cov(data, mu)
            assert res.statistic == _stat_at(data, mu, sigma)
            stats = _enumerated_moment_null(data, mu)
            np.testing.assert_allclose(
                res.distribution.statistics, stats, rtol=1e-12, atol=1e-12 * stats.max()
            )
            assert res.p_value == np.count_nonzero(stats >= stats[0]) / stats.size
            p_values.add(res.p_value)
        assert len(p_values) >= 3


def _binary_flips(n):
    """All 2^n sign rows in binary order, as floats."""
    for b in range(2 ** n):
        yield np.array([1.0 - 2.0 * ((b >> i) & 1) for i in range(n)])


def _score_and_information(data, mu, sigma):
    """Score and information of a complete dataset, one study at a time."""
    U = np.zeros(data.p)
    info = np.zeros((data.p, data.p))
    for i in range(data.n_studies):
        W = np.linalg.inv(data.S[i] + sigma)
        U += W @ (data.Y[i] - mu)
        info += W
    return U, info


def _enumerated_joint_null(data, mu, structure):
    """Exhaustive t1 null: refit each reflected dataset, warm-started at
    the observed constrained fit, then U' I^{-1} U at that refit."""
    warm = fit_eta_given_mu(data, mu, structure).het
    stats = []
    for v in _binary_flips(data.n_studies):
        flipped = Dataset(Y=mu + v[:, None] * (data.Y - mu), S=data.S)
        het = fit_eta_given_mu(flipped, mu, structure, init=warm).het
        U, info = _score_and_information(flipped, mu, between_cov(het, structure))
        stats.append(U @ np.linalg.solve(info, U))
    return np.array(stats)


def _enumerated_marginal_null(data, value, c, structure):
    """Exhaustive t3 null: reflect around the observed pseudo-null, refit
    the nuisance mean and heterogeneity, then U_c^2 over the Schur
    information of component c at that refit."""
    observed = fit_marginal_null(data, value, c, structure)
    rest = [j for j in range(data.p) if j != c]
    center = observed.mu
    stats = []
    for v in _binary_flips(data.n_studies):
        flipped = Dataset(Y=center + v[:, None] * (data.Y - center), S=data.S)
        fit = fit_marginal_null(flipped, value, c, structure, init=observed.het)
        U, info = _score_and_information(flipped, fit.mu, between_cov(fit.het, structure))
        J = info[c, c] - info[c, rest] @ np.linalg.solve(info[np.ix_(rest, rest)], info[rest, c])
        stats.append(U[c] ** 2 / J)
    return np.array(stats)


class TestRefitOracle:
    RTOL = 1e-6

    def _check(self, res, stats):
        np.testing.assert_allclose(
            res.distribution.statistics, stats, rtol=self.RTOL, atol=self.RTOL * stats.max()
        )
        # the refits agree only to optimizer tolerance, so the oracle counts
        # statistics within it of the observed one as ties; only the
        # identity and the complete flip, which the statistic cannot tell
        # from the data, may fall there
        ties = np.isclose(stats, stats[0], rtol=self.RTOL, atol=self.RTOL * stats.max())
        assert np.flatnonzero(ties).tolist() == [0, stats.size - 1]
        assert res.p_value == np.count_nonzero((stats >= stats[0]) | ties) / stats.size

    # the oracle refits each reflected dataset with the scalar fitter; the
    # batched kernel reaches other maxima than it does near tau = 0 under
    # compound symmetry, higher or lower, and on bivariate5's |kappa| -> 1
    # ridge, higher (test_ridge_rows_no_worse_than_scalar_fitter)
    @pytest.mark.parametrize("name, structure", [
        ("bivariate6", "unstructured"),
        pytest.param("bivariate5", "cs:0.3", marks=pytest.mark.xfail(
            strict=True, reason="batched and scalar t3 refits disagree near tau = 0",
        )),
    ])
    def test_exhaustive_matches_enumeration(self, request, name, structure):
        data = request.getfixturevalue(name)
        structure = CovStructure.parse(structure)
        ml = fit_ml(data).mu
        plan = PermutationPlan.exhaustive()
        p_values = set()
        for offset in (0.15, -0.3):
            mu = ml + offset
            res = joint_permutation_test(data, mu, plan=plan, structure=structure)
            self._check(res, _enumerated_joint_null(data, mu, structure))
            p_values.add(res.p_value)
            for c in range(data.p):
                res = marginal_permutation_test(data, mu[c], c, plan, structure)
                self._check(res, _enumerated_marginal_null(data, mu[c], c, structure))
                p_values.add(res.p_value)
        assert len(p_values) >= 4


@st.composite
def _study_orders(draw, max_n):
    """(dataset, structure, null mean, study order), N from 3 to max_n.

    One outcome, or two under compound symmetry at kappa0 = 0.3.
    """
    n = draw(st.integers(3, max_n))
    seed = draw(st.integers(0, 2 ** 16))
    if draw(st.booleans()):
        data, structure = make_univariate(seed, n), None
    else:
        data, structure = make_mvn(seed, n), CovStructure.cs(0.3)
    offset = draw(st.floats(-1.0, 1.0))
    order = draw(st.permutations(range(n)))
    return data, structure, data.Y.mean(axis=0) + offset, list(order)


def _reordered(data, order):
    return Dataset(Y=data.Y[order], S=data.S[order], ids=[data.ids[i] for i in order])


def _assert_same_null(base, other, rtol):
    assert other.p_value == base.p_value
    a = np.sort(base.distribution.statistics)
    b = np.sort(other.distribution.statistics)
    np.testing.assert_allclose(b, a, rtol=rtol, atol=rtol * a.max())


@settings(max_examples=60, deadline=None)
@given(case=_study_orders(8))
def test_moment_null_invariant_to_study_order(case):
    data, _, mu, order = case
    plan = PermutationPlan.exhaustive()
    base = joint_permutation_test(data, mu, plan=plan, stat="moment")
    other = joint_permutation_test(_reordered(data, order), mu, plan=plan, stat="moment")
    _assert_same_null(base, other, 1e-12)


# t1 and t3 refit every sign row, so their statistics agree across study
# orders only to the refits' tolerance
@settings(max_examples=25, deadline=None)
@given(case=_study_orders(7))
def test_cml_null_invariant_to_study_order(case):
    data, structure, mu, order = case
    plan = PermutationPlan.exhaustive()
    base = joint_permutation_test(data, mu, plan=plan, structure=structure)
    other = joint_permutation_test(_reordered(data, order), mu, plan=plan, structure=structure)
    _assert_same_null(base, other, 1e-6)


@settings(max_examples=25, deadline=None)
@given(case=_study_orders(7), component=st.integers(0, 1))
def test_marginal_null_invariant_to_study_order(case, component):
    data, structure, mu, order = case
    component = min(component, data.p - 1)
    plan = PermutationPlan.exhaustive()
    base = marginal_permutation_test(data, mu[component], component, plan, structure)
    other = marginal_permutation_test(
        _reordered(data, order), mu[component], component, plan, structure
    )
    _assert_same_null(base, other, 1e-6)


# (make_mvn seed, N) and offsets from the ML mean under each structure;
# every reflection of each dataset is tested exhaustively
ORBIT_CASES = [(11, 5), (7, 6), (3, 7)]


@pytest.mark.parametrize("structure", ["cs:0.3", "unstructured"])
@pytest.mark.parametrize("offset", [0.15, -0.3, 0.6])
@pytest.mark.parametrize("seed, n", ORBIT_CASES)
def test_t1_exact_size_over_whole_orbits(seed, n, offset, structure):
    # the finite-sample guarantee itself: reflecting y about mu0 by each
    # of the 2^N sign vectors gives datasets that are equally likely
    # under the null, so at most a share a of their exhaustive p-values
    # may be at or below any attained a. Refits reach each statistic
    # only to optimizer tolerance, so only p-values are compared
    data, structure = make_mvn(seed, n), CovStructure.parse(structure)
    mu0 = fit_ml(data, structure).mu + offset
    plan = PermutationPlan.exhaustive()
    p = np.array([
        joint_permutation_test(
            _flip_dataset(data, mu0, g), mu0, plan=plan, structure=structure
        ).p_value
        for g in generate_signs(plan, n).astype(float)
    ])
    for a in np.unique(p):
        assert np.count_nonzero(p <= a) <= a * 2 ** n, f"size above {a} at p <= {a}"


@pytest.mark.parametrize("offset", [0.15, -0.3, 0.6])
def test_t2_exact_size_over_whole_orbits(trivariate_missing, offset):
    # the same guarantee for t2 with outcomes missing: a reflection
    # about mu0 changes no mask and no product of residuals, so every
    # reflection of the data has the same moment covariance, and
    # exhaustive p-values over the 2^10 reflections keep the size
    data = trivariate_missing
    mu0 = np.array([0.2, 0.0, -0.3]) + offset
    plan = PermutationPlan.exhaustive()
    p = np.array([
        joint_permutation_test(_flip_dataset(data, mu0, g), mu0, plan=plan, stat="moment").p_value
        for g in generate_signs(plan, data.n_studies).astype(float)
    ])
    for a in np.unique(p):
        assert np.count_nonzero(p <= a) <= a * p.size, f"size above {a} at p <= {a}"


class TestFoldedRows:
    @pytest.fixture
    def refit_counts(self, monkeypatch):
        """The row count of every refit_rows call, recorded as the test runs."""
        real = metaperm.permutation.refit_rows
        rows = []

        def counted(data, Ys, *args, **kwargs):
            rows.append(Ys[0].shape[0])
            return real(data, Ys, *args, **kwargs)

        monkeypatch.setattr(metaperm.permutation, "refit_rows", counted)
        return rows

    @pytest.mark.parametrize("stat", ["t1", "t3"])
    def test_each_row_pair_refit_once(self, stat, monkeypatch, refit_counts):
        # 2,400 draws at N = 8 repeat most of the 254 refit rows, and
        # draw most rows with their complements; one refit per pair (127
        # rows) gives what refitting every drawn row gives: the observed
        # statistic and the p-value exactly, the null statistics to
        # optimizer tolerance, as v and -v are refit apart there
        data = make_mvn(5, 8)
        plan = PermutationPlan.random(2400, seed=7)
        mu = fit_ml(data).mu + 0.1

        def run():
            if stat == "t1":
                return joint_permutation_test(data, mu, plan=plan)
            return marginal_permutation_test(data, mu[0], 0, plan=plan)

        folded = run()
        signs = generate_signs(plan, data.n_studies)
        refit = signs[np.abs(signs.sum(axis=1)) != data.n_studies]
        pairs = np.unique(refit * refit[:, -1:], axis=0)
        assert sum(refit_counts) == len(pairs) == 127 < len(np.unique(refit, axis=0))
        # the plan folded only where it flips every study: each other
        # drawn row, a repeat or not, is its own canonical row and is refit
        flips = np.where(signs.sum(axis=1) == -data.n_studies, -1, 1).astype(np.int8)
        canonical = signs * flips[:, None]
        unfolded = _FoldedPlan(
            canonical.astype(float), np.arange(len(signs)), flips,
            (canonical == 1).all(axis=1),
            _sign_plan(plan, data.n_studies).includes_identity,
            1, np.concatenate([flips == 1, flips == -1]).astype(int),
        )
        refit_counts.clear()
        with monkeypatch.context() as m:
            m.setattr(metaperm.permutation, "_sign_plan", lambda plan, n: unfolded)
            every = run()
        assert sum(refit_counts) == len(refit)
        np.testing.assert_allclose(
            folded.distribution.statistics, every.distribution.statistics, rtol=1e-7, atol=1e-12
        )
        assert folded.statistic == every.statistic
        assert folded.p_value == every.p_value
        assert folded.n_failed == every.n_failed == 0
        assert folded.used_pinv == every.used_pinv

    @pytest.mark.parametrize("component", [None, 0])
    def test_complement_rows_mirror_their_partners(self, component, refit_counts):
        # exhaustive at N = 8: 127 refits per test, one per pair other
        # than the identity, and one value per canonical row; in plan
        # order row 2^N - 1 - b is the complement of row b, with the same
        # t1 statistic and the negated t3 root, bit for bit
        data = make_mvn(5, 8)
        structure = CovStructure.unstructured()
        mu = fit_ml(data).mu + 0.1
        value = mu if component is None else mu[component]
        s_obs, canonical, _, _, fold, solutions = _refit_distribution(
            data, value, component, structure, PermutationPlan.exhaustive()
        )
        assert sum(refit_counts) == len(solutions) == 127 and len(canonical) == 128
        stats = fold.null(canonical, "exhaustive", signed=component is not None).statistics
        sign = 1.0 if component is None else -1.0
        np.testing.assert_array_equal(stats[:128], canonical)
        np.testing.assert_array_equal(stats[128:], sign * stats[:128][::-1])
        assert stats[0] == s_obs and stats[-1] == sign * s_obs


class TestFoldedMomentNull:
    NULLS = ([0.4, -0.2], [0.1, 0.3], [-0.5, -0.2], [1.2, 0.6])

    @pytest.mark.parametrize(
        "n, plan",
        [
            (16, PermutationPlan.exhaustive()),
            (16, PermutationPlan.random(2400, seed=3)),
            (5, PermutationPlan.random(100, seed=4)),
            (2, PermutationPlan.exhaustive()),
            (3, PermutationPlan.exhaustive()),
            # no plan: 12 studies are enumerated, 13 draw DEFAULT_B rows
            (12, None),
            (13, None),
        ],
    )
    def test_equals_the_unfolded_pass_bitwise(self, n, plan):
        # the t2 null of the folded plan is the product of every row of
        # the plan with the studies' weighted residuals, with the identity
        # and the full flip assigned the observed statistic, at several
        # null values: bit for bit for an exhaustive plan. A random plan's
        # canonical rows sit elsewhere in the matrix than its draws, and
        # BLAS may sum a row's product in another order there, so its
        # null matches to rounding and its p-value exactly. Without a
        # plan the test is bit for bit that of the plan the rule names
        data = make_mvn(n, n)
        used = plan or (
            PermutationPlan.exhaustive() if n <= 12
            else PermutationPlan.random(DEFAULT_B, DEFAULT_SEED)
        )
        signs = generate_signs(used, n)
        ends = np.abs(signs.sum(axis=1)) == n
        for mu in self.NULLS:
            res = joint_permutation_test(data, mu, plan=plan, stat="moment")
            if plan is None:
                named = joint_permutation_test(data, mu, plan=used, stat="moment")
                assert res.distribution.mode == used.mode
                assert res.n_permutations == (4096 if n == 12 else DEFAULT_B)
                np.testing.assert_array_equal(
                    res.distribution.statistics, named.distribution.statistics
                )
                assert res.p_value == named.p_value
            U_obs, rows, Iinv, _, _ = _moment_setup(data, np.array([mu]))
            t_obs = float(np.maximum(_quad_forms(U_obs, Iinv), 0.0)[0])
            full = np.maximum(_quad_forms(signs.astype(float) @ rows[0], Iinv[0]), 0.0)
            full[ends] = t_obs
            assert res.statistic == t_obs
            if used.mode == "exhaustive":
                np.testing.assert_array_equal(res.distribution.statistics, full)
            else:
                np.testing.assert_allclose(res.distribution.statistics, full, rtol=1e-13)
                unfolded = NullDistribution(statistics=full, mode="random")
                assert res.p_value == unfolded.p_value(t_obs)

    @pytest.mark.parametrize(
        "n, plan",
        [
            (8, PermutationPlan.random(2400, seed=7)),
            (16, PermutationPlan.random(257)),
            (16, PermutationPlan.random(2400)),
        ],
    )
    def test_rows_of_one_canonical_row_tie_bitwise(self, n, plan):
        # every draw that folds onto one canonical row, a repeat or a
        # complement, gets the same t2 statistic bit for bit; at N = 8
        # nearly every one of the 2,400 draws repeats
        data = make_mvn(n, n)
        signs = generate_signs(plan, n)
        _, first, groups = np.unique(
            signs * signs[:, -1:], axis=0, return_index=True, return_inverse=True
        )
        for mu in self.NULLS:
            res = joint_permutation_test(data, mu, plan=plan, stat="moment")
            stats = res.distribution.statistics
            np.testing.assert_array_equal(stats, stats[first][groups.reshape(-1)])


class TestCountedNull:
    ALPHAS = (0.01, 0.05, 0.1, 0.2, 0.5, 0.9)

    @pytest.mark.parametrize(
        "plan",
        [
            PermutationPlan.exhaustive(),
            PermutationPlan.random(100, seed=1),
            PermutationPlan.random(100, seed=2),
        ],
    )
    @pytest.mark.parametrize("stat", ["t1", "t2", "t3"])
    def test_equals_the_expanded_oracle(self, bivariate5, stat, plan):
        # each test's null holds one value per canonical row, counted
        # over the plan; its p-values and thresholds must be those of the
        # values expanded to every row of the plan, bit for bit. At N = 5,
        # 100 random draws repeat most of the 32 rows and draw most with
        # their complements. t3 counts both forms _Probes uses: the
        # signed root and its square
        data, structure = bivariate5, CovStructure.unstructured()
        mu = fit_ml(data, structure).mu
        for shift in (0.0, 0.3):
            if stat == "t2":
                res = joint_permutation_test(data, mu + shift, plan=plan, stat="moment")
                fold = _sign_plan(plan, data.n_studies)
                forms = [(res.statistic, res.distribution.values, False)]
                assert res.distribution.size == plan.size_for(data.n_studies)
            else:
                component = None if stat == "t1" else 0
                value = mu + shift if stat == "t1" else mu[0] + shift
                s_obs, values, _, _, fold, _ = _refit_distribution(
                    data, value, component, structure, plan
                )
                forms = [(s_obs, values, stat == "t3")]
                if stat == "t3":
                    forms.append((s_obs * s_obs, values * values, False))
            for t_obs, values, signed in forms:
                expanded = values[fold.inverse] * (fold.flips if signed else 1)
                oracle = NullDistribution(statistics=expanded, mode=plan.mode)
                counted = fold.null(values, plan.mode, signed)
                assert counted.size == oracle.size
                np.testing.assert_array_equal(counted.statistics, expanded)
                for t in (t_obs, *expanded, -np.inf, np.inf):
                    assert counted.p_value(t) == oracle.p_value(t)
                for alpha in self.ALPHAS:
                    assert counted.threshold(alpha) == oracle.threshold(alpha)


def test_refit_distribution_reads_its_starts_only(bivariate12):
    # two calls with one start matrix agree bit for bit and leave it as
    # it was; rows without a start (nan) begin at the observed fit
    plan, structure = PermutationPlan.random(100, seed=20240101), CovStructure.parse("unstructured")
    *_, solutions = _refit_distribution(bivariate12, 0.45, 0, structure, plan)
    starts = solutions.copy()
    starts[::7] = np.nan
    kept = starts.copy()
    first = _refit_distribution(bivariate12, 0.5, 0, structure, plan, starts)
    second = _refit_distribution(bivariate12, 0.5, 0, structure, plan, starts)
    np.testing.assert_array_equal(starts, kept)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)
    cold = _refit_distribution(bivariate12, 0.5, 0, structure, plan)
    assert not np.array_equal(first[5], cold[5], equal_nan=True)


class TestMarginal:
    def test_identity_and_reflection_rows_exact(self, bivariate5):
        res = marginal_permutation_test(
            bivariate5, 0.1, 0, plan=PermutationPlan.exhaustive()
        )
        stats = res.distribution.statistics
        assert stats[0] == res.statistic
        assert stats[-1] == res.statistic  # global reflection negates the root
        assert res.component == 0
        assert res.stat == "marginal"
        assert np.isnan(res.mu_null[1]) and res.mu_null[0] == 0.1

    def test_statistic_zero_at_joint_ml(self, bivariate5):
        fit = fit_ml(bivariate5)
        for j in range(2):
            root, _, _ = _observed_statistic(bivariate5, fit.mu[j], j, None)
            value = root * root
            assert value == pytest.approx(0.0, abs=1e-9)

    def test_scalar_case_matches_joint_test(self, univariate10):
        # with one outcome there is no nuisance mean, the flip centers
        # coincide, and both tests reduce to the same scalar statistic
        plan = PermutationPlan.random(n_draws=200, seed=5)
        rj = joint_permutation_test(univariate10, [0.1], plan=plan, stat="cml")
        rm = marginal_permutation_test(univariate10, 0.1, 0, plan=plan)
        assert rm.statistic == pytest.approx(rj.statistic, rel=1e-12)
        assert rm.p_value == rj.p_value
        np.testing.assert_allclose(
            rm.distribution.statistics, rj.distribution.statistics, atol=1e-10
        )

    def test_statistic_rederived_from_constrained_fit(self, trivariate_missing):
        # rebuild the component score and its Schur information directly
        # from observed blocks, scattering each study's weight in place
        root, _, cml = _observed_statistic(trivariate_missing, 0.05, 1, None)
        value = root * root
        sigma = between_cov(cml.het, CovStructure.unstructured())
        mu_full = cml.mu
        assert mu_full[1] == 0.05
        U = np.zeros(3)
        info = np.zeros((3, 3))
        data = trivariate_missing
        for y, S, observed in zip(data.Y, data.S, data.observed):
            idx = np.flatnonzero(observed)
            Wi = np.linalg.inv(S[np.ix_(idx, idx)] + sigma[np.ix_(idx, idx)])
            U[idx] += Wi @ (y[idx] - mu_full[idx])
            info[np.ix_(idx, idx)] += Wi
        rest = [0, 2]
        schur = info[1, 1] - info[1, rest] @ np.linalg.solve(
            info[np.ix_(rest, rest)], info[rest, 1]
        )
        assert value == pytest.approx(U[1] ** 2 / schur, rel=1e-12)

    def test_component_out_of_range(self, bivariate5):
        with pytest.raises(ValueError, match="component"):
            marginal_permutation_test(bivariate5, 0.0, 2)

    def test_default_plan_enumerates_eight_studies(self):
        # without a plan, eight studies are enumerated: the t3 test is
        # the explicit exhaustive one bit for bit
        data = make_mvn(5, 8)
        res = marginal_permutation_test(data, 0.1, 0)
        named = marginal_permutation_test(data, 0.1, 0, plan=PermutationPlan.exhaustive())
        assert (res.distribution.mode, res.n_permutations) == ("exhaustive", 256)
        assert res.statistic == named.statistic and res.p_value == named.p_value
        np.testing.assert_array_equal(res.distribution.statistics, named.distribution.statistics)

    def test_random_plan_deterministic(self, bivariate5):
        plan = PermutationPlan.random(n_draws=150, seed=21)
        r1 = marginal_permutation_test(bivariate5, 0.0, 1, plan=plan)
        r2 = marginal_permutation_test(bivariate5, 0.0, 1, plan=plan)
        assert r1.p_value == r2.p_value
        assert np.array_equal(r1.distribution.statistics, r2.distribution.statistics)

    def test_refit_failure_budget(self, bivariate12, monkeypatch):
        # if more than a fifth of the permutation refits fail the test
        # must abort instead of quietly returning a distorted null
        _force_refit_failures(monkeypatch)
        with pytest.raises(NonConvergenceError, match="trustworthy"):
            marginal_permutation_test(
                bivariate12, 0.4, 0, plan=PermutationPlan.random(n_draws=100, seed=3)
            )


def _force_refit_failures(monkeypatch):
    """Fail every permuted refit: the batched kernel converges no row and
    every L-BFGS-B run after the first, the observed fit, reports that it
    did not converge."""
    real = metaperm.estimators._optimize_eta
    calls = []

    def flaky(*args):
        x, ll, ok, nit = real(*args)
        calls.append(None)
        return x, ll, ok and len(calls) == 1, nit

    monkeypatch.setattr(metaperm.estimators, "ROW_MAX_ITER", 0)
    monkeypatch.setattr(metaperm.estimators, "_optimize_eta", flaky)


def test_joint_refit_failure_budget(bivariate12, monkeypatch):
    _force_refit_failures(monkeypatch)
    with pytest.raises(NonConvergenceError, match="trustworthy"):
        joint_permutation_test(
            bivariate12, [0.4, -0.2], plan=PermutationPlan.random(n_draws=100, seed=3)
        )


# (fixture, structure, statistic, tested component, offset from the ML
# mean, plan); each case sends rows through the batched kernel
BATCHED_CASES = [
    ("bivariate5", "unstructured", "t1", None, 0.2, "exhaustive"),
    ("bivariate6", "cs:0.3", "t1", None, -0.2, "exhaustive"),
    ("bivariate6", "cs:0.3", "t3", 0, 0.2, "exhaustive"),
    ("bivariate6", "cs1:0.3", "t3", 1, -0.2, "exhaustive"),
    ("bivariate12", "unstructured", "t1", None, 0.2, "random"),
    ("bivariate12", "unstructured", "t3", 0, -0.2, "random"),
    ("bivariate12", "unstructured", "t3", 1, 0.2, "random"),
    ("trivariate_missing", "cs:0.3", "t1", None, 0.2, "random"),
    ("trivariate_missing", "cs1:0.3", "t3", 2, -0.2, "random"),
    ("univariate10", "unstructured", "t1", None, 0.2, "exhaustive"),
    ("univariate10", "unstructured", "t3", 0, -0.2, "exhaustive"),
]


def _spy(m, name, log):
    """Patch metaperm.permutation.<name> to record each call's (args, result)."""
    real = getattr(metaperm.permutation, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        log.append((args, out))
        return out

    m.setattr(metaperm.permutation, name, spy)


def _batched_and_scalar(data, structure, stat, component, offset, plan, monkeypatch):
    """Run one test as shipped and once with every row on the scalar fitter.

    Returns a record of both results, the permuted rows' statistics of
    each run, the batched run's flip center, sign rows and refit start
    (the observed fit), and the (free vectors, means, by_kernel, failed)
    its refit_rows calls returned.
    """
    structure = CovStructure.parse(structure)
    plan = (
        PermutationPlan.exhaustive()
        if plan == "exhaustive"
        else PermutationPlan.random(n_draws=150, seed=8)
    )
    mu = fit_ml(data, structure).mu + offset

    def run():
        if stat == "t1":
            return joint_permutation_test(data, mu, plan=plan, stat="cml", structure=structure)
        return marginal_permutation_test(data, mu[component], component, plan=plan, structure=structure)

    kernel, permuted, scalar_permuted = [], [], []
    with monkeypatch.context() as m:
        _spy(m, "refit_rows", kernel)
        _spy(m, "_permuted_statistics", permuted)
        batched = run()
    with monkeypatch.context() as m:
        # a kernel with no iterations converges no row, so every row takes
        # the scalar refit
        m.setattr(metaperm.estimators, "ROW_MAX_ITER", 0)
        _spy(m, "_permuted_statistics", scalar_permuted)
        scalar = run()
    (_, center, _, signs, _, init, _), (batched_rows, _, _, _) = permuted[0]
    return SimpleNamespace(
        data=data,
        structure=structure,
        component=None if stat == "t1" else component,
        batched=batched,
        scalar=scalar,
        batched_rows=batched_rows,
        scalar_rows=scalar_permuted[0][1][0],
        center=center,
        signs=signs,
        init=init,
        kernel=[out for _, out in kernel],
    )


def _assert_kernel_row_no_worse(run, i, x_kernel, mu_kernel, statistic):
    """Permuted row i's statistic is the one at the kernel's refit, and that
    refit's scalar objective is no worse than the scalar fitter's refit.
    Each refit is taken as the snapped heterogeneity its statistic was
    computed at; "no worse" allows a few units in the last place."""
    data, structure, component = run.data, run.structure, run.component
    flipped = _flip_dataset(data, run.center, run.signs[i])
    kernel_het = _het_from_free(x_kernel, structure, data.p)
    at_kernel = _stat_at(flipped, mu_kernel, between_cov(kernel_het, structure), component)
    assert at_kernel == pytest.approx(statistic, rel=1e-9, abs=1e-12)

    fixed = list(range(data.p)) if component is None else [component]
    fun = _neg_profiled_free(flipped, structure, fixed, run.center[fixed])
    if component is None:
        fit = lambda d, s, init: fit_eta_given_mu(d, run.center, s, init=init)
    else:
        value = run.center[component]
        fit = lambda d, s, init: fit_marginal_null(d, value, component, s, init=init)
    try:
        scalar_het = fit(flipped, structure, init=run.init).het
    except NonConvergenceError as exc:
        scalar_het = exc.last_result.het
    f_kernel = fun(_pack(kernel_het, structure))[0]
    f_scalar = fun(_pack(scalar_het, structure))[0]
    assert f_kernel <= f_scalar + 8 * np.spacing(abs(f_scalar)), (
        f"row {i}: objective {f_kernel!r} at the kernel's refit, {f_scalar!r} at the scalar one"
    )


def _assert_close_to_scalar(run):
    # every permuted statistic agrees with the scalar refit's to 1e-6
    # relative, or the kernel's refit is no worse than the scalar one: the
    # scalar fitter stops at a projected gradient of 1e-8 and the kernel at
    # 1e-9, so where the likelihood is flat the scalar refit can stop short
    b, s = run.batched_rows, run.scalar_rows
    atol = 1e-9 * np.abs(s).max()
    X, mus, ok, _ = (np.concatenate(a) for a in zip(*run.kernel))
    for i in np.flatnonzero(np.abs(b - s) > 1e-6 * np.abs(s) + atol):
        assert ok[i], f"row {i}: scalar fallback {b[i]!r} differs from the oracle {s[i]!r}"
        _assert_kernel_row_no_worse(run, i, X[i], mus[i], b[i])


class TestBatchedRefits:
    @pytest.mark.parametrize("name, structure, stat, component, offset, plan", BATCHED_CASES)
    def test_matches_scalar_refits(
        self, request, monkeypatch, name, structure, stat, component, offset, plan
    ):
        data = request.getfixturevalue(name)
        run = _batched_and_scalar(data, structure, stat, component, offset, plan, monkeypatch)
        assert sum(int(ok.sum()) for _, _, ok, _ in run.kernel) > 0
        _assert_close_to_scalar(run)
        assert run.batched.statistic == run.scalar.statistic
        assert run.batched.p_value == run.scalar.p_value
        assert run.batched.n_failed == run.scalar.n_failed
        assert run.batched.used_pinv == run.scalar.used_pinv

    def test_boundary_rows_match_scalar_refits(self, trivariate_missing, monkeypatch):
        # refits that land on the tau -> 0 boundary from an interior start
        run = _batched_and_scalar(
            trivariate_missing, "cs:0.3", "t3", 0, 0.2, "random", monkeypatch
        )
        X, _, ok, _ = (np.concatenate(a) for a in zip(*run.kernel))
        at_floor = (X[:, :3] <= np.log(TAU_MIN) + 1e-9).any(axis=1)
        assert (ok & at_floor).sum() >= 5
        assert (ok & ~at_floor).sum() >= 5
        _assert_close_to_scalar(run)
        assert run.batched.p_value == run.scalar.p_value

    def test_kernel_arrays_left_as_returned(self, bivariate6, monkeypatch):
        # a kernel with no iterations sends every row to the scalar fitter
        # inside refit_rows; the permutation layer writes to none of the
        # arrays it returned
        real = metaperm.permutation.refit_rows
        returned = []

        def spy(*args):
            out = real(*args)
            returned.append((out, [a.copy() for a in out]))
            return out

        monkeypatch.setattr(metaperm.permutation, "refit_rows", spy)
        monkeypatch.setattr(metaperm.estimators, "ROW_MAX_ITER", 0)
        value = fit_ml(bivariate6).mu[0] + 0.2
        marginal_permutation_test(bivariate6, value, 0, plan=PermutationPlan.exhaustive())
        assert returned and not any(ok.any() for (_, _, ok, _), _ in returned)
        for out, kept in returned:
            for a, b in zip(out, kept):
                np.testing.assert_array_equal(a, b)

    def test_rows_processed_in_chunks(self, bivariate12, monkeypatch):
        plan = PermutationPlan.random(n_draws=150, seed=8)
        whole = joint_permutation_test(bivariate12, [0.6, -0.2], plan=plan)
        monkeypatch.setattr(metaperm.permutation, "REFIT_CHUNK", 16)
        chunked = joint_permutation_test(bivariate12, [0.6, -0.2], plan=plan)
        np.testing.assert_array_equal(
            whole.distribution.statistics, chunked.distribution.statistics
        )


def _scalar_refit(data, center, component, structure, init):
    """The scalar fitter's constrained fit of data at the flip center, and
    whether it failed (then the fit is its last iterate)."""
    try:
        if component is None:
            return fit_eta_given_mu(data, center, structure, init=init), False
        return fit_marginal_null(data, center[component], component, structure, init=init), False
    except NonConvergenceError as exc:
        return exc.last_result, True


@pytest.mark.parametrize("name", ["bivariate5", "bivariate6"])
def test_ridge_rows_no_worse_than_scalar_fitter(request, name):
    # the unstructured observed fits of these datasets sit on the
    # |kappa| -> 1 ridge, all but bivariate5's joint fit at ML + 0.15; the
    # kernel converges every sign row from there, holding kappa on its
    # bound while the gradient points outward, and each row's maximum is
    # at least as high as that of one L-BFGS-B run from the same start.
    # On bivariate5 some are higher
    data = request.getfixturevalue(name)
    structure = CovStructure.unstructured()
    ml = fit_ml(data, structure).mu
    signs = generate_signs(PermutationPlan.exhaustive(), data.n_studies).astype(float)
    better = ridge = 0
    for offset in (0.15, -0.3):
        for component in [None, *range(data.p)]:
            fixed = np.arange(data.p) if component is None else np.array([component])
            observed, _ = _scalar_refit(data, ml + offset, component, structure, None)
            x0 = _pack(observed.het, structure)
            ridge += abs(x0[-1]) >= ZETA_MAX
            values = observed.mu[fixed]
            Ys = _flipped_outcomes(data, observed.mu, signs)
            X, _, by_kernel, _ = refit_rows(data, Ys, fixed, values, structure, observed.het)
            assert by_kernel.all()
            for b in range(signs.shape[0]):
                Yb = [np.ascontiguousarray(Y[b]) for Y in Ys]
                fun = _neg_profiled_free(data, structure, fixed, values, Ys=Yb)
                x_scalar = _lbfgs_refit(data, fixed, values, structure, x0, Yb)[0]
                f_kernel, f_scalar = fun(X[b])[0], fun(x_scalar)[0]
                tol = 1e-9 * (1.0 + abs(f_scalar))
                assert f_kernel <= f_scalar + tol, f"row {b}: {f_kernel!r} > {f_scalar!r}"
                better += f_kernel < f_scalar - tol
    assert ridge == (5 if name == "bivariate5" else 6)
    assert better > 0 or name != "bivariate5"


# (fixture, structure, how rows reach the scalar refit): a kernel without
# iterations converges no row, and a forced failure also makes every
# L-BFGS-B run after the observed fit report one. trivariate_missing's
# mask groups are strided views of its flipped outcomes
FALLBACK_CASES = [
    ("trivariate_missing", "cs:0.3", "budget"),
    ("trivariate_missing", "unstructured", "failure"),
]


@pytest.mark.parametrize("component", [None, 1])
@pytest.mark.parametrize("name, structure, how", FALLBACK_CASES)
def test_fallback_rows_are_scalar_fits_of_reflected_data(
    request, monkeypatch, name, structure, how, component
):
    # a row the kernel leaves unconverged gets the fit fit_eta_given_mu or
    # fit_marginal_null makes on the reflected dataset, bit for bit, and
    # a failed row is scored at its last iterate
    data = request.getfixturevalue(name)
    structure = CovStructure.parse(structure)
    mu = fit_ml(data, structure).mu + 0.2
    observed, _ = _scalar_refit(data, mu, component, structure, None)
    center = observed.mu
    fixed = np.arange(data.p) if component is None else np.array([component])
    signs = generate_signs(PermutationPlan.random(100, seed=8), data.n_studies)[:12].astype(float)
    monkeypatch.setattr(metaperm.estimators, "ROW_MAX_ITER", 0)
    if how == "failure":
        real = metaperm.estimators._optimize_eta

        def failing(*args):
            x, ll, _, nit = real(*args)
            return x, ll, False, nit

        monkeypatch.setattr(metaperm.estimators, "_optimize_eta", failing)
    X, mus, by_kernel, failed = refit_rows(
        data, _flipped_outcomes(data, center, signs), fixed, center[fixed], structure,
        observed.het,
    )
    sigmas = sigma_rows(X, structure, data.p)
    stats, failed_rows, _, solutions = _permuted_statistics(
        data, center, component, signs, structure, observed.het
    )
    assert not by_kernel.any()
    assert np.isnan(solutions).all()
    np.testing.assert_array_equal(failed_rows, failed)
    assert failed.all() == (how == "failure")
    for b, v in enumerate(signs):
        flipped = _flip_dataset(data, center, v)
        fit, fit_failed = _scalar_refit(flipped, center, component, structure, observed.het)
        np.testing.assert_array_equal(sigmas[b], fit.sigma)
        np.testing.assert_array_equal(mus[b], fit.mu)
        assert failed[b] == fit_failed
        # scored in a chunk, where _quad_forms may sum in another order
        assert stats[b] == pytest.approx(
            _stat_at(flipped, fit.mu, fit.sigma, component), rel=1e-12, abs=1e-15
        )
