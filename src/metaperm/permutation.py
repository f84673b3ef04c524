"""Sign-flip permutation engine.

Score statistics for joint and marginal nulls, sign-assignment
generation, and the permutation tests themselves. Flipping reflects
each study's observed outcomes around a center: z_i = v_i (y_i - c) + c
with v_i = +1 or -1 per study; within-study covariances are unchanged.

t1 (the joint cml test) and t3 (the marginal test) take one refit path,
_refit_distribution, and differ only in which mean components the null
fixes: all of them for t1, one for t3. The observed data are fit under
the null (_null_fit) and scored there (_statistics); the fitted mean is
the flip center, which for t3 plugs constrained estimates in for the
nuisance components (a local Monte Carlo test). Every sign row's
reflected sample is refit the same way, in batches with scalar
fallbacks, and scored at its own refit (_permuted_statistics). t2 (the
joint moment test) needs no refit: its covariance is sign-invariant, so
one pass gives the whole null.

Every statistic evaluates the likelihood pass of model.py: its weights
and scatter give the score and information of many rows at once
(_score_rows), its quadratic forms and Schur complements give the
statistics, and the t2 null adds each study's weighted residuals.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from .estimators import (
    fit_eta_given_mu,
    fit_marginal_null,
    moment_between_cov,
    refit_rows,
    sigma_rows,
)
from .exceptions import NonConvergenceError, UninformativeComponentError
from .model import (
    _finite_mean,
    _quad_forms,
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
# array, (rows, studies, free parameters, k, k), under exhaustive plans
REFIT_CHUNK = 256


@dataclass(frozen=True)
class PermutationPlan:
    """How to enumerate sign assignments.

    mode "exhaustive" visits all 2^N assignments, for N up to 20:
    size_for refuses more than EXHAUSTIVE_CAP (2^20) rows. Mode
    "random" draws n_draws iid uniform assignments from the seed.
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


def _default_plan(plan):
    return plan if plan is not None else PermutationPlan.random()


def generate_signs(plan, n_studies):
    """Materialize the sign matrix, shape (B, N) with entries +-1.

    Exhaustive mode enumerates assignments in binary order: row b flips
    study i exactly when bit i of b is set, so row 0 is the identity.
    It fills one column at a time from one int64 row index, so the build
    peaks at the int8 matrix (N bytes per row) plus three B-length int64
    vectors: 1 + 1.5 MiB at N = 16, 20 + 24 MiB at N = 20. Random
    mode draws iid uniform signs from the plan's seed; repeated calls
    return the same matrix.
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


@functools.lru_cache(maxsize=1)
def _sign_plan(plan, n_studies):
    """Read-only float64 sign matrix of a plan and its int64 row sums.

    Every test of one inversion (lattice points, interval probes,
    replicates) shares a plan, so the last plan built is kept and reused.
    The signs are kept as float64, the dtype every test multiplies them
    in, so no test converts them again. That holds 8 bytes per study per
    sign row between tests: 8.5 MiB at N = 16 with the row sums, and
    168 MiB at the 2^20 cap (N = 20) where int8 signs would hold 20 MiB.
    The build peaks at the float plan plus the int8 matrix: 9.5 MiB at
    N = 16, 188 MiB at N = 20. generate_signs is looked up in this module
    at call time, so perfbench's traced run sees each build.
    """
    signs = generate_signs(plan, n_studies)
    row_sums = signs.sum(axis=1, dtype=np.int64)
    row_sums.flags.writeable = False
    signs = signs.astype(float)
    signs.flags.writeable = False
    return signs, row_sums


@dataclass(frozen=True, eq=False)
class NullDistribution:
    """Permutation null distribution with its counting rules.

    In exhaustive mode the statistics cover all 2^N assignments (the
    observed statistic is the identity row's entry); in random mode they
    are the B drawn assignments, and the add-one rule accounts for the
    observed one.
    """

    statistics: np.ndarray
    mode: str
    includes_identity: bool = False

    def __post_init__(self):
        stats = np.asarray(self.statistics, dtype=float)
        if stats.ndim != 1 or stats.size == 0 or not np.all(np.isfinite(stats)):
            raise ValueError("null distribution must be a finite nonempty vector")
        stats = stats.copy()
        stats.flags.writeable = False
        object.__setattr__(self, "statistics", stats)

    @property
    def size(self):
        return self.statistics.size

    def p_value(self, t_obs):
        """Upper-tail p-value of an observed statistic; ties count in."""
        return self._p_from_count(int(np.count_nonzero(self.statistics >= t_obs)))

    def _p_from_count(self, count):
        """p-value of a statistic that count permutation values reach."""
        if self.mode == "exhaustive":
            return count / self.size
        return (1 + count) / (self.size + 1)

    def accepted(self, t_obs, alpha):
        """True when the test at level alpha does not reject."""
        return self.p_value(t_obs) > alpha

    def threshold(self, alpha):
        """Largest statistic value still accepted at level alpha.

        Dual to p_value by construction: accepted(t, alpha) iff
        t <= threshold(alpha). Returns +inf when even a statistic above
        every permutation value is accepted, -inf when nothing is.
        """
        n = self.size
        if self._p_from_count(0) > alpha:
            return np.inf
        if not self._p_from_count(n) > alpha:
            return -np.inf
        # a statistic s is accepted iff its count #{t >= s} reaches the
        # smallest count c whose p-value exceeds alpha; the largest such
        # s is the (n - c)-th order statistic (0-based). The p-value rises
        # with the count, so a guess solved from alpha is corrected by
        # stepping with the very expressions p_value uses
        guess = alpha * n + 1 if self.mode == "exhaustive" else alpha * (n + 1)
        c = min(max(int(guess), 1), n)
        while c > 1 and self._p_from_count(c - 1) > alpha:
            c -= 1
        while not self._p_from_count(c) > alpha:
            c += 1
        k = n - c
        return float(np.partition(self.statistics, k)[k])


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


def _score_rows(data, Ys, mus, sigmas):
    """Score and information of each row at its own mean and Sigma.

    Row b has outcomes Ys[g][b] per mask group, mean mus[b] and
    between-study covariance sigmas[b]. Returns U (R, p), the scattered
    information (R, p, p) and the rows whose weights took the
    pseudoinverse path. Raises DataError if any marginal covariance is
    indefinite.
    """
    blocks, indefinite, pinv = _weights(data, sigmas, Ys)
    _require_definite(indefinite)
    info, U = _scatter(blocks, mus.shape[1], mus)
    return U, info, pinv


def _statistics(data, Ys, mus, sigmas, component):
    """t1 or t3 statistic of many rows, each at its own mean and Sigma.

    With component None it is the joint score statistic U' I^{-1} U,
    clamped at zero (t1); J is +inf and pinv flags a pseudoinverse in
    the weights or the information. Otherwise it is the signed marginal
    root U_c / sqrt(J) of that component (t3), J its Schur information;
    at a row's own constrained fit the nuisance components of U vanish,
    so U_c is the efficient score. Roots are nan where J <
    MIN_MARGINAL_INFO, and pinv flags a pseudoinverse in the Schur
    complement. Returns (statistics, J, pinv).
    """
    U, info, pinv_w = _score_rows(data, Ys, mus, sigmas)
    if component is None:
        Iinv, _, _, pinv = _sym_inverse_flags(info)
        stats = np.maximum(_quad_forms(U, Iinv), 0.0)
        return stats, np.full(stats.shape, np.inf), pinv_w | pinv
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


def _flip_dataset(data, center, v):
    """The dataset with outcomes reflected by one sign row around the center.

    Uses the expression of _flipped_outcomes, so the packed groups of
    the result equal that row's flipped outcomes bit for bit.
    """
    return replace(data, Y=center + v[:, None] * (data.Y - center))


def _require_information(J, component):
    if np.any(J < MIN_MARGINAL_INFO):
        raise UninformativeComponentError(
            f"component {component} carries no marginal information (J={np.min(J):.3e})"
        )


def _null_fit(data, value, component, structure, init=None):
    """Constrained fit at the null: the whole mean at value when component
    is None (t1), else that one component at value (t3).

    Calls the fitters through this module's bindings, so perfbench's
    traced run sees every refit.
    """
    if component is None:
        return fit_eta_given_mu(data, value, structure, init=init)
    return fit_marginal_null(data, value, component, structure, init=init)


def _observed_statistic(data, value, component, structure):
    """Fit the null on the data and evaluate the statistic at that fit.

    Returns (statistic, used_pinv, cml): the joint score statistic for
    component None, else the signed marginal root (see _statistics),
    and the constrained fit. Raises UninformativeComponentError when the
    tested component carries no information at the fit.
    """
    cml = _null_fit(data, value, component, structure)
    stats, J, pinv = _statistics(
        data, _own_outcomes(data), cml.mu[None], cml.sigma[None], component
    )
    _require_information(J, component)
    return float(stats[0]), bool(pinv[0]), cml


def _includes_identity(plan, row_sums, n_studies):
    """True when the plan's rows contain the all-plus assignment."""
    return plan.mode == "exhaustive" or bool((row_sums == n_studies).any())


def _test_result(plan, t_obs, stats, includes_identity, **fields):
    """TestResult of an observed statistic against its permutation values."""
    dist = NullDistribution(statistics=stats, mode=plan.mode, includes_identity=includes_identity)
    return TestResult(
        statistic=float(t_obs), p_value=dist.p_value(t_obs), distribution=dist, **fields
    )


def joint_permutation_test(data, mu_null, plan=None, stat="cml", structure=None):
    """Sign-flip permutation test of a joint null on the whole mean.

    For each sign assignment the outcomes are reflected around the null
    mean. With stat="cml" the heterogeneity is refit on each permuted
    sample (warm-started at the observed constrained fit) before the
    score statistic is evaluated; with stat="moment" the sign-invariant
    moment plug-in makes any refit unnecessary, so the whole
    distribution is computed in one vectorized pass.

    Sign assignments that flip nothing (or everything) reproduce the
    observed statistic exactly and are assigned it directly.
    """
    if stat not in ("cml", "moment"):
        raise ValueError(f"unknown joint statistic {stat!r}")
    structure = _require_structure(structure)
    plan = _default_plan(plan)
    mu = _finite_mean(mu_null, data.p, "null mean")
    if stat == "moment":
        signs, row_sums = _sign_plan(plan, data.n_studies)
        sigma, _ = moment_between_cov(data, mu)
        t_obs, stats, used_pinv = _moment_statistics(data, mu, sigma, signs)
        stats[np.abs(row_sums) == data.n_studies] = t_obs
        n_failed = 0
        includes_identity = _includes_identity(plan, row_sums, data.n_studies)
    else:
        t_obs, stats, n_failed, used_pinv, includes_identity = _refit_distribution(
            data, mu, None, structure, plan
        )
    return _test_result(
        plan, t_obs, stats, includes_identity,
        n_failed=n_failed, stat=stat, mu_null=mu, used_pinv=used_pinv,
    )


def _moment_statistics(data, mu, sigma, signs):
    """Observed and permuted statistics of the moment plug-in (t2).

    The moment covariance is sign-invariant, so every assignment shares
    one weight set: U_b = sum_i v_bi W_i r_i, T_b = U_b' I^{-1} U_b. One
    likelihood pass at a single row inverts the weights once and gives
    the information, the observed score and the per-study W_i r_i. The
    observed statistic is summed as _statistics sums the t1 statistic,
    so at the same Sigma the two agree bit for bit. Raises DataError if a marginal covariance
    or the information is indefinite. Returns (t_obs, statistics,
    used_pinv).
    """
    blocks, indefinite, pinv_w = _weights(data, sigma[None], _own_outcomes(data))
    _require_definite(indefinite)
    info, U_obs = _scatter(blocks, data.p, mu[None])
    s = [_weighted_residuals(block, mu[None])[1] for block in blocks]
    Iinv, _, indefinite, pinv = _sym_inverse_flags(info)
    _require_definite(indefinite)
    t_obs = float(np.maximum(_quad_forms(U_obs, Iinv), 0.0)[0])
    stats = np.maximum(_quad_forms(signs @ _study_rows(data, s)[0], Iinv[0]), 0.0)
    return t_obs, stats, bool(pinv_w[0] or pinv[0])


def _permuted_statistics(data, center, component, signs, structure, init, starts=None):
    """Statistic of each sign row's reflected sample at its own refit.

    With component None the whole mean is fixed at the center and the
    statistic is the joint score statistic (t1); otherwise that one
    component is fixed, the rest are profiled, and the statistic is the
    signed marginal root (t3). The refits of each chunk of REFIT_CHUNK
    rows run in one refit_rows call, started at init, the observed
    constrained fit, or at the rows' free vectors in starts (see
    refit_rows). Rows it leaves unconverged, and marginal rows without
    information, are refit one at a time with the scalar fitter on the
    reflected dataset, started at init; only a failure there counts.
    Returns (statistics, failed, used_pinv, solutions): failed marks
    the rows whose scalar refit failed, and solutions holds each row's
    converged free vector from refit_rows, nan where the scalar fitter
    took over.
    """
    fixed = np.arange(data.p) if component is None else np.array([component])
    value = center if component is None else center[component]
    out = np.empty(signs.shape[0])
    failed = np.zeros(signs.shape[0], dtype=bool)
    solutions = np.empty((signs.shape[0], structure.n_free(data.p)))
    used_pinv = False
    for start in range(0, signs.shape[0], REFIT_CHUNK):
        rows = slice(start, start + REFIT_CHUNK)
        chunk = signs[rows]
        Ys = _flipped_outcomes(data, center, chunk)
        X, mus, ok = refit_rows(
            data, Ys, fixed, center[fixed], structure, init,
            None if starts is None else starts[rows],
        )
        sigmas = sigma_rows(X, structure, data.p)
        stats, J, pinv = _statistics(data, Ys, mus, sigmas, component)
        redo = np.flatnonzero(~ok | (J < MIN_MARGINAL_INFO))
        X[redo] = np.nan
        for b in redo:
            flipped = _flip_dataset(data, center, chunk[b])
            try:
                cml_b = _null_fit(flipped, value, component, structure, init=init)
            except NonConvergenceError as exc:
                cml_b = exc.last_result
                failed[start + b] = True
            mus[b], sigmas[b] = cml_b.mu, cml_b.sigma
        if redo.size:
            stats[redo], J[redo], pinv[redo] = _statistics(
                data, [Y[redo] for Y in Ys], mus[redo], sigmas[redo], component
            )
            _require_information(J[redo], component)
        out[rows] = stats
        solutions[rows] = X
        used_pinv |= bool(pinv.any())
    return out, failed, used_pinv, solutions


def _distinct_rows(signs):
    """The distinct rows of a sign matrix and each row's index among them."""
    distinct, inverse = np.unique(signs, axis=0, return_inverse=True)
    return distinct, inverse.reshape(-1)


def _nearest_solutions(starts, value):
    """Row solutions stored at the probed null value nearest to value, or None."""
    if not starts:
        return None
    return starts[min(starts, key=lambda v: abs(v - value))]


def _refit_distribution(data, value, component, structure, plan, starts=None, warm=False):
    """Observed and permuted statistics of a refit test, t1 or t3.

    component None tests the whole mean at value (t1); otherwise one
    component at value (t3), whose statistics are the signed marginal
    roots. The observed data are fit under the null and scored at that
    fit, whose mean is the flip center. Every other sign row's reflected
    sample is refit and scored the same way (_permuted_statistics),
    once per distinct row: a random plan that draws the same
    assignment twice refits it once and gives both the same statistic.
    The assignment that flips nothing reproduces the observed statistic
    exactly, and the one that flips everything reproduces it for t1 and
    its negation for t3 (the refit center is invariant under global
    reflection), so both are assigned directly. More than
    MAX_FAILURE_FRACTION failed refits raise NonConvergenceError.

    starts, private to one inversion (see inference), maps each null
    value tested so far under this plan to the free vectors its distinct
    rows converged to (nan where the scalar fitter took over); this
    test's are added. With warm true each row's refit starts from its
    own vector at the nearest stored value; otherwise, and for rows
    without one, from the observed fit. The observed fit, its statistic
    and the flip center never depend on starts.
    Returns (s_obs, statistics, n_failed, used_pinv, includes_identity).
    """
    signs, row_sums = _sign_plan(plan, data.n_studies)
    s_obs, used_pinv, cml = _observed_statistic(data, value, component, structure)
    stats = np.where(row_sums > 0, s_obs, s_obs if component is None else -s_obs)
    refit = np.abs(row_sums) != data.n_studies
    n_refit = int(refit.sum())
    distinct, inverse = _distinct_rows(signs[refit])
    stats_d, failed, used, solutions = _permuted_statistics(
        data, cml.mu, component, distinct, structure, cml.het,
        _nearest_solutions(starts, value) if warm else None,
    )
    if starts is not None:
        starts[value] = solutions
    stats[refit] = stats_d[inverse]
    n_failed = int(np.count_nonzero(failed[inverse]))
    if n_refit and n_failed > MAX_FAILURE_FRACTION * n_refit:
        raise NonConvergenceError(
            f"{n_failed} of {n_refit} permutation refits failed; "
            "result would not be trustworthy"
        )
    includes_identity = _includes_identity(plan, row_sums, data.n_studies)
    return s_obs, stats, n_failed, used_pinv or used, includes_identity


def marginal_permutation_test(data, value, component, plan=None, structure=None):
    """Local Monte Carlo sign-flip test of one mean component.

    The flip center is the pseudo-null (tested value, constrained
    estimates of the other components). Each permuted sample gets its
    own refit of the nuisance mean and heterogeneity, and the permuted
    statistic is the component score of that sample at its own refit,
    mirroring how the observed statistic is built from the data.
    """
    structure = _require_structure(structure)
    plan = _default_plan(plan)
    value = float(value)
    # fit_marginal_null, the first fit, rejects a component out of range
    s_obs, roots, n_failed, used_pinv, includes_identity = _refit_distribution(
        data, value, component, structure, plan
    )
    mu_null = np.full(data.p, np.nan)
    mu_null[component] = value
    return _test_result(
        plan, s_obs * s_obs, roots * roots, includes_identity,
        n_failed=n_failed, stat="marginal", mu_null=mu_null,
        component=component, used_pinv=used_pinv,
    )
