"""Sign-flip permutation engine.

Score statistics for joint and marginal nulls, sign-assignment
generation, and the permutation tests themselves. Flipping reflects
each study's observed outcomes around a center: z_i = v_i (y_i - c) + c
with v_i = +1 or -1 per study; within-study covariances are unchanged.

The joint test flips around the tested mean itself. The marginal test
flips around a pseudo-null center that plugs constrained estimates in
for the nuisance components (a local Monte Carlo test), refits the
nuisance mean and heterogeneity on each permuted sample, and evaluates
the signed score of the original data at the refitted pseudo-null.

Every statistic evaluates the likelihood pass of model.py: its weights
and scatter give the score and information of many rows at once
(_score_rows), and the t2 null adds each study's weighted residuals.
This module adds only the quadratic forms and Schur complements of the
statistics.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from .estimators import (
    CmlResult,
    fit_eta_given_mu,
    fit_marginal_null,
    moment_between_cov,
    refit_rows,
    sigma_rows,
)
from .exceptions import NonConvergenceError, UninformativeComponentError
from .model import (
    _finite_mean,
    _require_definite,
    _require_structure,
    _scatter,
    _study_rows,
    _sym_inverse_flags,
    _weighted_residuals,
    _weights,
    between_cov,
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
    "score_statistic_cml",
    "marginal_score_statistic",
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


def _quad_forms(U, Iinv):
    """Quadratic forms U_r' Iinv U_r of the rows of U, shape (R,).

    Iinv is one (p, p) matrix shared by every row or one per row,
    (R, p, p). Each term is (U_i Iinv_ij) U_j, summed from zero with i
    outer and j inner. That is the order of np.einsum("ri,rij,rj->r")
    and np.einsum("bi,ij,bj->b"), so the result equals theirs bit for
    bit at a fraction of their cost; region thresholds compare these
    statistics exactly. At p = 2 with one row, or two rows sharing one
    inverse, einsum sums each i's two terms before adding them to the
    total, and so does this.
    """
    R, p = U.shape
    paired = p == 2 and R <= (2 if Iinv.ndim == 2 else 1)
    columns = U.T.copy()
    out = np.zeros(R)
    term = np.empty_like(out)
    for i in range(p):
        acc = np.zeros(R) if paired else out
        for j in range(p):
            np.multiply(columns[i], Iinv[..., i, j], out=term)
            term *= columns[j]
            acc += term
        if paired:
            out += acc
    return out


def _joint_statistics(data, Ys, mus, sigmas):
    """Score statistics U' I^{-1} U of many rows, clamped at zero.

    Returns (statistics, pinv) with pinv flagging the rows whose weights
    or information took the pseudoinverse path.
    """
    U, info, pinv = _score_rows(data, Ys, mus, sigmas)
    Iinv, _, _, pinv_i = _sym_inverse_flags(info)
    stats = np.maximum(_quad_forms(U, Iinv), 0.0)
    return stats, pinv | pinv_i


def _marginal_roots(data, Ys, mus, sigmas, component):
    """Signed marginal score roots U_c / sqrt(J) of many rows.

    U is the scattered score at each row's mean and J the Schur
    information of the tested component. At a row's own constrained fit
    the nuisance components of U vanish, so U_c is the efficient score.
    Returns (roots, J, pinv); pinv flags a pseudoinverse in the Schur
    complement, and roots are nan where J < MIN_MARGINAL_INFO.
    """
    U, info, _ = _score_rows(data, Ys, mus, sigmas)
    p = mus.shape[1]
    pinv = np.zeros(mus.shape[0], dtype=bool)
    J = info[:, component, component]
    if p > 1:
        rest = np.array([j for j in range(p) if j != component])
        Icc_inv, _, _, pinv = _sym_inverse_flags(info[:, rest[:, None], rest])
        Ica = info[:, rest, component]
        J = np.maximum(J - _quad_forms(Ica, Icc_inv), 0.0)
    informative = J >= MIN_MARGINAL_INFO
    roots = np.full(J.shape, np.nan)
    roots[informative] = U[informative, component] / np.sqrt(J[informative])
    return roots, J, pinv


def _own_outcomes(data):
    return [g.Y[None] for g in data._groups]


def _stat_from_sigma(data, mu, sigma):
    """Quadratic-form score statistic U' I^{-1} U at a given Sigma."""
    stats, pinv = _joint_statistics(data, _own_outcomes(data), mu[None], sigma[None])
    return float(stats[0]), bool(pinv[0])


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


def score_statistic_cml(data, mu_null, structure=None, *, init=None):
    """Efficient score statistic at a joint null.

    The heterogeneity is set to its constrained MLE under the null, then
    the statistic is the quadratic form of the score in the inverse
    information. Returns (value, CmlResult).
    """
    structure = _require_structure(structure)
    mu = _finite_mean(mu_null, data.p, "null mean")
    cml = fit_eta_given_mu(data, mu, structure, init=init)
    sigma = between_cov(cml.het, structure)
    value, _ = _stat_from_sigma(data, mu, sigma)
    return value, cml


def _marginal_root(data, mu_full, sigma, component):
    """Signed marginal score root of a dataset at a constrained fit.

    Returns (root, used_pinv); see _marginal_roots.
    """
    roots, J, pinv = _marginal_roots(
        data, _own_outcomes(data), mu_full[None], sigma[None], component
    )
    _require_information(J, component)
    return float(roots[0]), bool(pinv[0])


def _require_information(J, component):
    if np.any(J < MIN_MARGINAL_INFO):
        raise UninformativeComponentError(
            f"component {component} carries no marginal information (J={np.min(J):.3e})"
        )


def _assemble_mu(p, component, value, mu_c):
    mu = np.empty(p)
    mu[component] = value
    rest = [j for j in range(p) if j != component]
    mu[rest] = mu_c
    return mu


def marginal_score_statistic(data, value, component, structure=None, *, init=None):
    """Marginal score statistic for one mean component.

    Nuisance mean components and heterogeneity are set to their
    constrained MLEs under the component null; the statistic is the
    squared component score over its Schur information.
    Returns (value, CmlResult).
    """
    structure = _require_structure(structure)
    cml = fit_marginal_null(data, value, component, structure, init=init)
    sigma = between_cov(cml.het, structure)
    mu_full = _assemble_mu(data.p, component, float(value), cml.mu_c)
    root, _ = _marginal_root(data, mu_full, sigma, component)
    return root * root, cml


def _includes_identity(plan, row_sums, n_studies):
    """True when the plan's rows contain the all-plus assignment."""
    return plan.mode == "exhaustive" or bool((row_sums == n_studies).any())


def _check_failures(n_failed, n_attempted):
    if n_attempted and n_failed > MAX_FAILURE_FRACTION * n_attempted:
        raise NonConvergenceError(
            f"{n_failed} of {n_attempted} permutation refits failed; "
            "result would not be trustworthy"
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
    signs, row_sums = _sign_plan(plan, data.n_studies)
    B = signs.shape[0]
    all_equal = np.abs(row_sums) == data.n_studies
    n_failed = 0
    used_pinv = False

    if stat == "moment":
        sigma, _ = moment_between_cov(data, mu)
        t_obs, stats, used_pinv = _moment_statistics(data, mu, sigma, signs)
        stats[all_equal] = t_obs
    else:
        t_obs, cml_obs = score_statistic_cml(data, mu, structure)
        stats = np.full(B, t_obs)
        refit = ~all_equal
        stats[refit], n_failed, used_pinv = _permuted_statistics(
            data, mu, None, signs[refit], structure, cml_obs.het
        )
        _check_failures(n_failed, int(refit.sum()))

    dist = NullDistribution(
        statistics=stats,
        mode=plan.mode,
        includes_identity=_includes_identity(plan, row_sums, data.n_studies),
    )
    return TestResult(
        statistic=float(t_obs),
        p_value=dist.p_value(t_obs),
        distribution=dist,
        n_failed=n_failed,
        stat=stat,
        mu_null=mu,
        used_pinv=used_pinv,
    )


def _moment_statistics(data, mu, sigma, signs):
    """Observed and permuted statistics of the moment plug-in (t2).

    The moment covariance is sign-invariant, so every assignment shares
    one weight set: U_b = sum_i v_bi W_i r_i, T_b = U_b' I^{-1} U_b. One
    likelihood pass at a single row inverts the weights once and gives
    the information, the observed score and the per-study W_i r_i. The
    observed statistic is summed as _stat_from_sigma sums it, so it
    equals that bit for bit. Raises DataError if a marginal covariance
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


def _permuted_statistics(data, center, component, signs, structure, warm):
    """Statistic of each sign row's reflected sample at its own refit.

    With component None the whole mean is fixed at the center and the
    statistic is the joint score statistic (t1); otherwise that one
    component is fixed, the rest are profiled, and the statistic is the
    signed marginal root (t3). The refits of each chunk of REFIT_CHUNK
    rows run in one refit_rows call warm-started at warm. Rows it leaves
    unconverged, and marginal rows without information, are refit one
    at a time with the scalar fitter on the reflected dataset; only a
    failure there counts in n_failed.
    Returns (statistics, n_failed, used_pinv).
    """
    p = data.p
    fixed = np.arange(p) if component is None else np.array([component])
    free = np.array([j for j in range(p) if j not in fixed], dtype=np.intp)
    out = np.empty(signs.shape[0])
    n_failed = 0
    used_pinv = False

    def statistics(Ys, mus, sigmas):
        if component is None:
            stats, pinv = _joint_statistics(data, Ys, mus, sigmas)
            return stats, np.full(stats.shape, np.inf), pinv
        return _marginal_roots(data, Ys, mus, sigmas, component)

    for start in range(0, signs.shape[0], REFIT_CHUNK):
        chunk = signs[start:start + REFIT_CHUNK]
        Ys = _flipped_outcomes(data, center, chunk)
        X, mu_free, ok = refit_rows(data, Ys, fixed, center[fixed], structure, warm)
        sigmas = sigma_rows(X, structure, p)
        mus = np.tile(center, (chunk.shape[0], 1))
        mus[:, free] = mu_free
        stats, J, pinv = statistics(Ys, mus, sigmas)
        redo = np.flatnonzero(~ok | (J < MIN_MARGINAL_INFO))
        for b in redo:
            flipped = _flip_dataset(data, center, chunk[b])
            try:
                if component is None:
                    cml_b = fit_eta_given_mu(
                        data=flipped, mu_null=center, structure=structure, init=warm
                    )
                else:
                    cml_b = fit_marginal_null(
                        flipped, center[component], component, structure, init=warm
                    )
            except NonConvergenceError as exc:
                cml_b = exc.last_result
                n_failed += 1
            sigmas[b] = between_cov(cml_b.het, structure)
            mus[b, free] = cml_b.mu_c
        if redo.size:
            stats[redo], J[redo], pinv[redo] = statistics(
                [Y[redo] for Y in Ys], mus[redo], sigmas[redo]
            )
            _require_information(J[redo], component)
        out[start:start + chunk.shape[0]] = stats
        used_pinv |= bool(pinv.any())
    return out, n_failed, used_pinv


def _marginal_signed_distribution(data, value, component, structure, plan):
    """Observed and permuted signed marginal score roots.

    Each permuted root is the observed functional applied to the
    reflected sample: refit the nuisance mean and heterogeneity on the
    permuted data, then take its component score root at that refit.
    Returns (s_obs, roots, n_failed, used_pinv, includes_identity).
    Sign assignments that flip nothing reproduce the observed root
    exactly; assignments that flip everything reproduce its negation
    (the refit center is invariant under global reflection).
    """
    p = data.p
    cml_obs = fit_marginal_null(data, value, component, structure)
    sigma_obs = between_cov(cml_obs.het, structure)
    center = _assemble_mu(p, component, value, cml_obs.mu_c)
    s_obs, used_pinv = _marginal_root(data, center, sigma_obs, component)

    signs, row_sums = _sign_plan(plan, data.n_studies)
    roots = np.where(row_sums > 0, s_obs, -s_obs)
    refit = np.abs(row_sums) != data.n_studies
    roots[refit], n_failed, used = _permuted_statistics(
        data, center, component, signs[refit], structure, cml_obs.het
    )
    used_pinv |= used
    _check_failures(n_failed, int(refit.sum()))
    return s_obs, roots, n_failed, used_pinv, _includes_identity(plan, row_sums, data.n_studies)


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
    p = data.p
    value = float(value)
    # fit_marginal_null, the first step, rejects a component out of range
    s_obs, roots, n_failed, used_pinv, includes_identity = _marginal_signed_distribution(
        data, value, component, structure, plan
    )
    t_obs = s_obs * s_obs
    dist = NullDistribution(
        statistics=roots * roots,
        mode=plan.mode,
        includes_identity=includes_identity,
    )
    mu_null = np.full(p, np.nan)
    mu_null[component] = value
    return TestResult(
        statistic=float(t_obs),
        p_value=dist.p_value(t_obs),
        distribution=dist,
        n_failed=n_failed,
        stat="marginal",
        mu_null=mu_null,
        component=component,
        used_pinv=used_pinv,
    )
