"""Sign-flip permutation engine.

Score statistics for joint and marginal nulls, sign-assignment
generation, and the permutation tests themselves. Flipping reflects
each study's observed outcomes around a center: z_i = v_i (y_i - c) + c
with v_i = +1 or -1 per study; within-study covariances are unchanged.
A row v and its complement -v reflect the data about the same center,
so each plan is folded once (_sign_plan) and every test computes one
value per canonical row, one row of each complementary pair the plan
draws; its null counts each value once for every plan row that folds
onto it (NullDistribution), so no test expands its values to the plan.

t1 (the joint cml test) and t2 (the joint moment test) differ only in
their between-study covariance. Both fix the whole mean at the null and
reflect every study about it, which changes no residual product
r_i r_i' and no mask. t2 takes the moment covariance, pair by pair over
the studies that observe both outcomes; t1 the constrained fit with the
mean fixed (fit_eta_given_mu), whose objective reads the data only
through those products. Either Sigma is a function of the sign orbit, so
the test stays exact with nothing refit: one likelihood pass and one
product of the canonical rows with the studies' weighted residuals give
the whole null (_moment_tests), for a chunk of t2 null means at once.

t3 (the marginal test) fixes one component and profiles the rest, so
its fit does move with the signs (_refit_distribution). The observed
data are fit under the null and scored there (_observed_statistic); the
fitted mean is the flip center, which plugs constrained estimates in for
the nuisance components (a local Monte Carlo test). Each canonical row's
reflected sample is refit by estimators.refit_rows, which chooses its
batched kernel or the scalar fitter row by row, and each chunk of rows
is scored once (_permuted_statistics). A refit starts at the observed
fit or where the caller says: inference.py decides the starts of an
inversion's tests, and this module keeps nothing between tests and
writes to no argument.

Every statistic evaluates the likelihood pass of model.py: its weights
and scatter give the score and information of many rows at once, its
quadratic forms give the joint statistics and its Schur complements the
marginal roots (_statistics), and a joint null adds each study's
weighted residuals.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .estimators import (
    fit_eta_given_mu,
    fit_marginal_null,
    moment_between_cov,
    refit_rows,
    sigma_rows,
    tau_reads_zero,
)
from .exceptions import NonConvergenceError, UninformativeComponentError
from .model import (
    _finite_mean,
    _quad_forms,
    _readonly,
    _require_definite,
    _require_structure,
    _scatter,
    _schur_information,
    _study_rows,
    _sym_inverse_flags,
    _weighted_residuals,
    _weights,
    # not called here; perfbench's traced run counts likelihood passes
    # through this module's binding, so it stays importable
    model_terms,  # noqa: F401
)

__all__ = [
    "DEFAULT_B",
    "DEFAULT_SEED",
    "PermutationPlan",
    "NullDistribution",
    "TestResult",
    "generate_signs",
    "joint_permutation_test",
    "marginal_permutation_test",
]

DEFAULT_B = 2400
DEFAULT_SEED = 20240101
EXHAUSTIVE_CAP = 2 ** 20

# a refit failure rate above this aborts the whole test
MAX_FAILURE_FRACTION = 0.2

# Schur information below this signals an uninformative component
MIN_MARGINAL_INFO = 1e-12

# sign rows refit together in one refit_rows call; bounds its largest
# arrays, the (rows, studies, k, k) weights of the likelihood pass,
# under exhaustive plans (an Armijo ladder evaluates no more rows)
REFIT_CHUNK = 256

# t2 tests at several null means share one product with the folded
# plan (_moment_tests); this caps that product, (means * p, canonical
# rows) of float64, in bytes: four bivariate means of an exhaustive plan
# at N = 16
MOMENT_CHUNK_BYTES = 2 ** 21


@dataclass(frozen=True)
class PermutationPlan:
    """How to enumerate sign assignments.

    mode "exhaustive" visits all 2^N assignments, for N up to 20:
    size_for refuses more than EXHAUSTIVE_CAP (2^20) rows. Mode
    "random" draws n_draws iid uniform assignments from the seed.
    plan=None means exhaustive up to N = 12, else random() (_default_plan).
    """

    mode: str
    n_draws: int = None
    seed: int = None

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown permutation mode {self.mode!r}")
        if self.mode == "random":
            if self.n_draws is None or self.n_draws < 100:
                raise ValueError("random plans need at least 100 draws")
            if self.seed is None:
                raise ValueError("random plans need an explicit seed")

    @classmethod
    def exhaustive(cls):
        return cls(mode="exhaustive")

    @classmethod
    def random(cls, n_draws=DEFAULT_B, seed=DEFAULT_SEED):
        return cls(mode="random", n_draws=int(n_draws), seed=int(seed))

    def size_for(self, n_studies):
        if self.mode == "exhaustive":
            size = 2 ** n_studies
            if size > EXHAUSTIVE_CAP:
                raise ValueError(
                    f"exhaustive enumeration of 2^{n_studies} assignments exceeds the "
                    f"cap {EXHAUSTIVE_CAP}; use a random plan"
                )
            return size
        return self.n_draws


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")


def _joint_structure(stat, structure):
    """structure, unstructured when None; t2's moment Sigma takes no other."""
    structure = _require_structure(structure)
    if stat == "moment" and structure.kind != "unstructured":
        raise ValueError(f"t2 takes no covariance structure, got {structure.kind!r}")
    return structure


def _default_plan(plan, n_studies, seed=DEFAULT_SEED):
    """plan, else exhaustive while 2^(N-1) <= DEFAULT_B (N <= 12), else DEFAULT_B draws."""
    if plan is not None:
        return plan
    if 2 ** (n_studies - 1) <= DEFAULT_B:
        return PermutationPlan.exhaustive()
    return PermutationPlan.random(DEFAULT_B, seed)


def generate_signs(plan, n_studies):
    """Materialize the sign matrix, shape (B, N) with entries +-1.

    Exhaustive mode enumerates assignments in binary order: row b flips
    study i exactly when bit i of b is set, so row 0 is the identity,
    row 2^N - 1 - b is the complement of row b, and the first half holds
    one row of every complementary pair (_sign_plan folds every plan,
    sorting only a random one). It fills one column at a time from one
    int64 row index, so the build peaks at the int8 matrix (N bytes per
    row) plus three B-length int64 vectors: 1 + 1.5 MiB at N = 16,
    20 + 24 MiB at N = 20. Random mode draws iid uniform signs from the
    plan's seed; repeated calls return the same matrix.
    """
    size = plan.size_for(n_studies)
    if plan.mode == "exhaustive":
        rows = np.arange(size, dtype=np.int64)
        signs = np.empty((size, n_studies), dtype=np.int8)
        for i in range(n_studies):
            signs[:, i] = 1 - 2 * ((rows >> i) & 1)
        return signs
    rng = np.random.default_rng(plan.seed)
    return (2 * rng.integers(0, 2, size=(size, n_studies)) - 1).astype(np.int8)


@dataclass(frozen=True, eq=False)
class _FoldedPlan:
    """A sign plan folded over its complementary pairs of rows.

    The t1 and t2 statistics are even in the signs and the t3 root is
    odd, so one row of each pair is computed: signs holds, as read-only
    float64 rows, the one of each pair the plan draws whose last study
    is unflipped. Row b of the plan is flips[b] * signs[inverse[b]].
    counts[r] is the number of plan rows that fold onto canonical row
    r; signed_counts splits them by last sign, the +1 rows of every
    canonical row, then the -1 rows. An exhaustive plan's are the ints
    2 and 1, the same for every row. identity marks the canonical row
    of all +1, whose plan rows reproduce the observed statistic;
    includes_identity tells whether the plan draws the identity itself.
    """

    signs: np.ndarray
    inverse: np.ndarray
    flips: np.ndarray
    identity: np.ndarray
    includes_identity: bool
    counts: object
    signed_counts: object

    def null(self, values, mode, signed=False):
        """NullDistribution of one value per canonical row, in the order of signs.

        signed values are t3 roots: a row's root r counts as +r for each
        plan row that folds onto it with last sign +1, -r for each -1.
        """
        counts, rows = self.counts, (self.inverse, None)
        if signed:
            values, counts = np.concatenate([values, -values]), self.signed_counts
            rows = (self.inverse, self.flips)
        return NullDistribution(values, mode, self.includes_identity, _counts=counts, _rows=rows)


@functools.lru_cache(maxsize=1)
def _sign_plan(plan, n_studies):
    """The plan's sign matrix folded over complementary rows (_FoldedPlan).

    Every test of one inversion (lattice points, interval tests,
    replicates) shares a plan, so the last plan built is kept, folded
    once. In the binary order of an exhaustive plan the canonical rows
    are the first half and row 2^N - 1 - b is the complement of row b,
    so no sort runs; a random plan's canonical rows are np.unique's, so
    its repeats fold too. The canonical signs are kept as float64 in
    column-major order, so that signs.T is the study-major matrix a t2
    product reads as it is (_moment_tests). Between tests an exhaustive
    plan holds 8 bytes per study and 1 more per canonical row, and 9
    bytes per row of the plan (4.6 MiB at N = 16); a random plan also
    holds 24 bytes of counts per canonical row. The README's
    performance notes give the sizes and build peaks. generate_signs is
    looked up in this module at call time, so perfbench's traced run
    sees each build.
    """
    signs = generate_signs(plan, n_studies)
    flips = signs[:, -1].copy()
    if plan.mode == "exhaustive":
        canonical = signs[: signs.shape[0] // 2]
        rows = np.arange(signs.shape[0])
        inverse = np.minimum(rows, rows[::-1])
        counts, signed_counts = 2, 1
    else:
        canonical, inverse = np.unique(signs * flips[:, None], axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        up, down = (np.bincount(inverse[flips == f], minlength=len(canonical)) for f in (1, -1))
        counts, signed_counts = up + down, np.concatenate([up, down])
        counts.flags.writeable = signed_counts.flags.writeable = False
    identity = (canonical == 1).all(axis=1)
    includes_identity = bool((identity[inverse] & (flips == 1)).any())
    folded = _FoldedPlan(
        canonical.astype(float, order="F"), inverse, flips, identity, includes_identity,
        counts, signed_counts,
    )
    for array in (folded.signs, inverse, flips, identity):
        array.flags.writeable = False
    return folded


@dataclass(frozen=True, eq=False, init=False)
class NullDistribution:
    """Permutation null distribution with its counting rules.

    counts[j] is how many rows of the plan values[j] stands for, or one
    int for every value. size is the plan's row count: all 2^N
    assignments in exhaustive mode, the identity's value being the
    observed statistic, or the B draws in random mode, where the add-one
    rule accounts for the observed one. NullDistribution(statistics,
    mode) counts each entry once; a test's null holds one value per
    canonical row of its folded plan (_FoldedPlan.null), so no vector of
    the plan's length is formed. Integer counts give every p-value and
    threshold of the whole plan's vector bit for bit; statistics builds
    that vector, in plan order, each time it is read.
    """

    values: np.ndarray
    counts: object
    mode: str
    includes_identity: bool
    size: int

    def __init__(self, statistics, mode, includes_identity=False, *, _counts=1, _rows=None):
        values = np.array(statistics, dtype=float)
        if values.ndim != 1 or values.size == 0 or not np.all(np.isfinite(values)):
            raise ValueError("null distribution must be a finite nonempty vector")
        values.flags.writeable = False
        size = _counts * values.size if isinstance(_counts, int) else int(_counts.sum())
        # frozen: the fields are set past __setattr__
        self.__dict__.update(
            values=values, counts=_counts, mode=mode, includes_identity=includes_identity,
            size=size, _rows=_rows,
        )

    @property
    def statistics(self):
        """The null as one value per row of the plan, in plan order.

        A test's null reads its plan's inverse, and for t3 roots its
        flips (_FoldedPlan.null), but not its signs, so a result that
        outlives the cached plan does not keep the sign matrix alive.
        """
        if self._rows is None:
            stats = np.repeat(self.values, self.counts)
        else:
            inverse, flips = self._rows
            if flips is not None:
                # a signed null: the negated roots follow the roots
                inverse = np.where(flips == 1, inverse, inverse + self.values.size // 2)
            stats = self.values[inverse]
        stats.flags.writeable = False
        return stats

    def p_value(self, t_obs):
        """Upper-tail p-value of an observed statistic; ties count in."""
        reached = self.values >= t_obs
        if isinstance(self.counts, int):
            return self._p_from_count(self.counts * int(np.count_nonzero(reached)))
        return self._p_from_count(int(self.counts[reached].sum()))

    def _p_from_count(self, count):
        """p-value of a statistic that count permutation values reach."""
        if self.mode == "exhaustive":
            return count / self.size
        return (1 + count) / (self.size + 1)

    def accepted(self, t_obs, alpha):
        """True when the test at level alpha, in (0, 1), does not reject."""
        _check_alpha(alpha)
        return self.p_value(t_obs) > alpha

    def threshold(self, alpha):
        """Largest statistic value still accepted at level alpha, in (0, 1).

        Dual to p_value by construction: accepted(t, alpha) iff
        t <= threshold(alpha). Returns +inf when even a statistic above
        every permutation value is accepted. Every statistic reaches
        itself, so the one below every permutation value has p-value 1
        and is accepted at every level.
        """
        _check_alpha(alpha)
        n = self.size
        if self._p_from_count(0) > alpha:
            return np.inf
        # a statistic s is accepted iff its count #{t >= s} reaches the
        # smallest count c whose p-value exceeds alpha; the largest such
        # s is the (n - c)-th order statistic (0-based) of the plan's
        # values. The p-value rises with the count, so a guess solved
        # from alpha is corrected by stepping with the very expressions
        # p_value uses
        guess = alpha * n + 1 if self.mode == "exhaustive" else alpha * (n + 1)
        c = min(max(int(guess), 1), n)
        while c > 1 and self._p_from_count(c - 1) > alpha:
            c -= 1
        while not self._p_from_count(c) > alpha:
            c += 1
        k = n - c
        if isinstance(self.counts, int):
            # each value stands for the same number of rows
            k //= self.counts
            return float(np.partition(self.values, k)[k])
        # the first value, in ascending order, whose cumulative count
        # passes k; a value that stands for no row never does
        order = np.argsort(self.values)
        j = np.searchsorted(np.cumsum(self.counts[order]), k, side="right")
        return float(self.values[order[j]])


@dataclass(frozen=True, eq=False)
class TestResult:
    """Result of a permutation test."""

    statistic: float
    p_value: float
    distribution: NullDistribution
    n_failed: int
    stat: str
    mu_null: np.ndarray
    component: int = None
    used_pinv: bool = False

    @property
    def n_permutations(self):
        return self.distribution.size


def _statistics(data, Ys, mus, sigmas, component):
    """t3 root of many rows, each at its own mean and Sigma.

    Row b has outcomes Ys[g][b] per mask group, mean mus[b] and
    between-study covariance sigmas[b]; one likelihood pass gives every
    row's score U and information. The statistic is the signed marginal
    root U_c / sqrt(J) of the component, J its Schur information; at a
    row's own constrained fit the nuisance components of U vanish, so
    U_c is the efficient score. Roots are nan where J <
    MIN_MARGINAL_INFO, and pinv flags a pseudoinverse in the Schur
    complement. Returns (roots, J, pinv). Raises DataError if any
    marginal covariance is indefinite.
    """
    blocks, indefinite, _ = _weights(data, sigmas, Ys)
    _require_definite(indefinite)
    info, U = _scatter(blocks, mus.shape[1], mus)
    J, _, pinv = _schur_information(info, component)
    informative = J >= MIN_MARGINAL_INFO
    roots = np.full(J.shape, np.nan)
    roots[informative] = U[informative, component] / np.sqrt(J[informative])
    return roots, J, pinv


def _own_outcomes(data):
    return [g.Y[None] for g in data._groups]


def _flipped_outcomes(data, center, signs):
    """Each sign row's reflected outcomes per mask group, shape (R, n, k)."""
    Ys = []
    for g in data._groups:
        c = center[g.idx]
        v = signs[:, g.members][:, :, None]
        Ys.append(c + v * (g.Y - c))
    return Ys


def _require_information(J, component):
    if np.any(J < MIN_MARGINAL_INFO):
        raise UninformativeComponentError(
            f"component {component} carries no marginal information (J={np.min(J):.3e})"
        )


def _observed_statistic(data, value, component, structure):
    """Fit the t3 null on the data and evaluate the root at that fit.

    The constrained fit fixes the component at value. It calls the
    fitter through this module's binding, so perfbench's traced run
    sees every observed fit; the sign rows' refits run inside
    refit_rows. Returns (root, used_pinv, cml): the signed marginal root
    (see _statistics) and the constrained fit. Raises
    UninformativeComponentError when the tested component carries no
    information at the fit.
    """
    cml = fit_marginal_null(data, value, component, structure)
    stats, J, pinv = _statistics(
        data, _own_outcomes(data), cml.mu[None], cml.sigma[None], component
    )
    _require_information(J, component)
    return float(stats[0]), bool(pinv[0]), cml


def _test_result(plan, fold, t_obs, values, **fields):
    """TestResult of an observed statistic against its canonical rows' values."""
    dist = fold.null(values, plan.mode)
    return TestResult(
        statistic=float(t_obs), p_value=dist.p_value(t_obs), distribution=dist, **fields
    )


def joint_permutation_test(data, mu_null, plan=None, stat="cml", structure=None):
    """Sign-flip permutation test of a joint null on the whole mean.

    For each sign assignment the outcomes are reflected around the null
    mean, and the score statistic U' I^{-1} U is evaluated at one
    between-study covariance for every assignment: with stat="cml" (t1)
    the constrained ML fit of the observed data with the whole mean at
    the null, with stat="moment" (t2) the moment plug-in, which takes no
    structure other than unstructured (ValueError). Reflection leaves
    either covariance as it is, so nothing is refit and the whole
    distribution is computed in one vectorized pass (_moment_tests); a
    t1 fit that does not converge raises NonConvergenceError.

    Sign assignments that flip nothing (or everything) reproduce the
    observed statistic exactly and are assigned it directly. Either
    statistic is even in the signs, so each complementary pair of
    assignments is computed once (see _FoldedPlan). Without a plan it
    is exhaustive, hence exact, up to 12 studies (_default_plan).
    """
    if stat not in ("cml", "moment"):
        raise ValueError(f"unknown joint statistic {stat!r}")
    structure = _joint_structure(stat, structure)
    plan = _default_plan(plan, data.n_studies)
    mu = _finite_mean(mu_null, data.p, "null mean")
    (result,) = _moment_tests(data, [mu], plan, stat, structure)
    return result


def _moment_setup(data, mus, sigmas):
    """Setup of a joint test (t1 or t2) at null means mus (P, p) and Sigmas (P, p, p).

    One likelihood pass with a row per mean gives every mean's weights,
    information, observed score and weighted residuals W_i r_i, each row
    bit for bit that of its mean alone; it runs by mask group, so missing
    outcomes need no special case. An indefinite weight set or
    information is flagged, not raised. Returns (U_obs (P, p), the
    residuals as study rows (P, N, p), I^{-1} (P, p, p), used_pinv (P,),
    indefinite (P,)).
    """
    blocks, indefinite, pinv_w = _weights(data, sigmas)
    info, U_obs = _scatter(blocks, data.p, mus)
    s = [_weighted_residuals(block, mus)[1] for block in blocks]
    Iinv, _, indefinite_info, pinv = _sym_inverse_flags(info)
    return U_obs, _study_rows(data, s), Iinv, pinv_w | pinv, indefinite | indefinite_info


def _moment_tests(data, mus, plan, stat="moment", structure=None):
    """The joint test, t1 ("cml") or t2 ("moment"), at each null mean of mus, in order.

    Each mean's Sigma is sign-invariant: moment_between_cov's for t2,
    fit_eta_given_mu's under structure for t1, both called through this
    module's bindings. So every assignment of one null mean shares one
    weight set: U_b = sum_i v_bi W_i r_i and T_b = U_b' I^{-1} U_b. All
    means are validated first, then taken a chunk at a time. A chunk is
    set up in one batched pass (_moment_setup), and its means share one
    product with the folded plan's canonical rows: their residuals,
    stacked as the columns of V (N, P * p), give V' signs' (P * p,
    canonical rows), each mean's score components as contiguous rows
    that _quad_forms reads without a copy. MOMENT_CHUNK_BYTES caps that
    product, and each product is released before the next is formed.
    The complement -v gives -U_b exactly, so each mean's null is its
    canonical rows' statistics (_moment_null), counted over the plan.
    Each observed statistic is summed from its mean's row alone, as a
    single test sums it. A mean whose weights or information is
    indefinite raises DataError in its turn, after the earlier means'
    results; a t1 chunk holds one mean, so a fit that does not converge
    raises NonConvergenceError in its turn too. Yields one TestResult
    per mean.
    """
    n, p = data.n_studies, data.p
    mus = _readonly(np.array([_finite_mean(mu, p, "null mean") for mu in mus]).reshape(-1, p))
    fold = _sign_plan(plan, n)
    per_chunk = max(1, MOMENT_CHUNK_BYTES // (8 * p * fold.signs.shape[0]))
    if stat == "cml":
        per_chunk = 1
    for start in range(0, len(mus), per_chunk):
        chunk = mus[start : start + per_chunk]
        if stat == "moment":
            sigmas, _ = moment_between_cov(data, chunk)
        else:
            sigmas = fit_eta_given_mu(data, chunk[0], structure).sigma[None]
        U_obs, rows, Iinv, used_pinv, indefinite = _moment_setup(data, chunk, sigmas)
        null = rows.transpose(1, 0, 2).reshape(n, -1).T @ fold.signs.T
        for k, mu in enumerate(chunk):
            _require_definite(indefinite[k])
            t_obs = float(np.maximum(_quad_forms(U_obs[k : k + 1], Iinv[k : k + 1]), 0.0)[0])
            yield _test_result(
                plan, fold, t_obs,
                _moment_null(fold, t_obs, null[k * p : (k + 1) * p], Iinv[k]),
                n_failed=0, stat=stat, mu_null=mu, used_pinv=bool(used_pinv[k]),
            )
        del null


def _moment_null(fold, t_obs, U, Iinv):
    """Joint statistic of each canonical row of the plan, from the rows'
    score components U (p, canonical rows); the identity row takes the
    observed statistic t_obs. The statistic is even in the signs, so it
    is also that of every plan row that folds onto the canonical row.
    """
    stats = _quad_forms(U.T, Iinv)
    np.maximum(stats, 0.0, out=stats)
    stats[fold.identity] = t_obs
    return stats


def _permuted_statistics(data, center, component, signs, structure, init, starts=None):
    """t3 root of each sign row's reflected sample at its own refit.

    The component is fixed at the center and the rest are profiled.
    Each chunk of REFIT_CHUNK rows is refit in one refit_rows call,
    started at init, the observed constrained fit, or at the rows' free
    vectors in starts, and scored in one _statistics call. Raises
    UninformativeComponentError where a row's tested component carries
    no information at its refit. Returns (roots, failed, used_pinv,
    solutions): failed marks the rows whose scalar refit failed, and
    solutions holds the free vector of each row the batched kernel
    converged, nan where the scalar fitter took over or a tau reads as
    zero (tau_reads_zero): the objective is flat in log tau there, so
    such a vector says nothing about where the row's solution moves with
    the null.
    """
    fixed = np.array([component])
    out = np.empty(signs.shape[0])
    failed = np.empty(signs.shape[0], dtype=bool)
    solutions = np.empty((signs.shape[0], structure.n_free(data.p)))
    used_pinv = False
    for start in range(0, signs.shape[0], REFIT_CHUNK):
        rows = slice(start, start + REFIT_CHUNK)
        Ys = _flipped_outcomes(data, center, signs[rows])
        X, mus, by_kernel, failed[rows] = refit_rows(
            data, Ys, fixed, center[fixed], structure, init,
            None if starts is None else starts[rows],
        )
        sigmas = sigma_rows(X, structure, data.p)
        out[rows], J, pinv = _statistics(data, Ys, mus, sigmas, component)
        _require_information(J, component)
        kept = by_kernel & ~tau_reads_zero(X, structure, data.p)
        solutions[rows] = np.where(kept[:, None], X, np.nan)
        used_pinv |= bool(pinv.any())
    return out, failed, used_pinv, solutions


def _refit_distribution(data, value, component, structure, plan, starts=None):
    """Observed and permuted signed roots of the t3 test of component at value.

    The observed data are fit under the null and scored at that fit,
    whose mean is the flip center. Every other canonical row of the
    folded plan (_FoldedPlan) is refit and scored the same way
    (_permuted_statistics), once for all the plan rows that fold onto
    it: the refit center is invariant under global reflection, so a row
    and its complement reach one refit. The identity row takes the
    observed statistic. A failed refit counts once for every plan row
    that folds onto it, and more than MAX_FAILURE_FRACTION failed rows
    raise NonConvergenceError.

    starts, when given, holds one free vector per canonical row other
    than the identity, in the plan's fixed order of canonical rows; each
    row's refit starts there (see refit_rows), and otherwise at the
    observed fit. The observed fit, its statistic and the flip center
    never depend on starts, and no argument is written to.
    Returns (s_obs, roots, n_failed, used_pinv, fold, solutions): roots
    holds each canonical row's own root, for fold.null to count signed,
    and solutions the refit rows' free vectors in the order of starts
    (see _permuted_statistics).
    """
    fold = _sign_plan(plan, data.n_studies)
    s_obs, used_pinv, cml = _observed_statistic(data, value, component, structure)
    refit = ~fold.identity
    stats = np.full(refit.shape, s_obs)
    failed = np.zeros(refit.shape, dtype=bool)
    stats[refit], failed[refit], used, solutions = _permuted_statistics(
        data, cml.mu, component, fold.signs[refit], structure, cml.het, starts
    )
    n_refit = int(np.sum(fold.counts * refit))
    n_failed = int(np.sum(fold.counts * failed))
    if n_refit and n_failed > MAX_FAILURE_FRACTION * n_refit:
        raise NonConvergenceError(
            f"{n_failed} of {n_refit} permutation refits failed; "
            "result would not be trustworthy"
        )
    return s_obs, stats, n_failed, used_pinv or used, fold, solutions


def marginal_permutation_test(data, value, component, plan=None, structure=None):
    """Local Monte Carlo sign-flip test of one mean component.

    The flip center is the pseudo-null (tested value, constrained
    estimates of the other components). Each permuted sample gets its
    own refit of the nuisance mean and heterogeneity, and the permuted
    statistic is the component score of that sample at its own refit,
    mirroring how the observed statistic is built from the data.
    """
    structure = _require_structure(structure)
    plan = _default_plan(plan, data.n_studies)
    value = float(value)
    # fit_marginal_null, the first fit, rejects a component out of range
    s_obs, roots, n_failed, used_pinv, fold, _ = _refit_distribution(
        data, value, component, structure, plan
    )
    mu_null = np.full(data.p, np.nan)
    mu_null[component] = value
    return _test_result(
        plan, fold, s_obs * s_obs, roots * roots,
        n_failed=n_failed, stat="marginal", mu_null=mu_null,
        component=component, used_pinv=used_pinv,
    )
