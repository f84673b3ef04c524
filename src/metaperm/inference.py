"""Consumer-facing inference products built on the permutation tests.

Confidence regions come from scanning a lattice of joint null values,
confidence intervals from inverting the marginal test by outward scan
plus bisection, point estimates from solving for a one-sided signed
permutation p-value of one half, and Wald summaries from the fitted
information matrix. Every permutation test invoked here reuses one
fixed sign plan, so acceptance is a deterministic function of the null
value and the reported boundaries are well defined. One _Probes object
runs each inversion: it fits ML once for the anchor and step size, and
its one search (_Probes.search) finds the point estimate and each side
of the interval. Warm starts are decided there and nowhere else: the
search starts each warm test's refits from the sign rows' solutions at
earlier null values and confirms its final values with cold re-tests.
The permutation layer only takes the starts it is given.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc, gammaincinv, ndtri

from .estimators import fit_ml
from .exceptions import NonConvergenceError, SingularInformationError
from .model import _check_component, _finite_mean, _require_structure, _sym_inverse_flags
from .permutation import (
    _check_alpha,
    _default_plan,
    _joint_structure,
    _moment_tests,
    # a module binding that perfbench's traced run wraps as the test span
    # of every probe of an inversion
    _refit_distribution as _marginal_signed_distribution,
    joint_permutation_test,
    # not called here; perfbench's traced run wraps this module's binding,
    # so it stays importable
    marginal_permutation_test,  # noqa: F401
)

__all__ = [
    "WaldSummary",
    "Interval",
    "RegionGrid",
    "wald_inference",
    "median_unbiased_estimate",
    "confidence_interval",
    "confidence_region",
]

# working-scale tolerance for interval endpoints and point estimates
XTOL = 1e-4
# outward scan: step size as a fraction of the Wald standard error
STEP_FRACTION = 0.25
MAX_STEPS = 64
# default region bounds: the box around the Wald ellipse at this level,
# widened by this factor
REGION_ELLIPSE_LEVEL = 0.999
REGION_INFLATE = 1.5


# chi-square quantile and upper tail through the scipy.special ufuncs that
# scipy.stats.chi2 calls, so the values are the same without importing
# scipy.stats, which costs every process about half a second; ndtri is
# norm.ppf the same way
def _chi2_ppf(q, df):
    return 2.0 * gammaincinv(df / 2.0, q)


def _chi2_sf(x, df):
    """chi2.sf(x, df) as a float: 1 at x <= 0, where chdtrc gives nan below 0."""
    return 1.0 if x <= 0.0 else float(chdtrc(df, x))


@dataclass(frozen=True)
class WaldSummary:
    """Wald comparator: per-component intervals and the joint ellipsoid test.

    Intervals are estimate +- z_{1-alpha/2} * sqrt(diag(I^{-1})); the
    joint statistic is the information quadratic form of the deviation
    from mu_null, compared to the chi-square quantile with p degrees of
    freedom.
    """

    estimate: np.ndarray
    se: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    alpha: float
    mu_null: np.ndarray
    chi2_statistic: float
    chi2_threshold: float
    p_value: float

    @property
    def reject(self):
        return self.chi2_statistic > self.chi2_threshold

    def covers(self, mu_true):
        """Componentwise interval coverage indicator for a true mean."""
        mu = np.asarray(mu_true, dtype=float)
        return (self.lower <= mu) & (mu <= self.upper)

    def ellipsoid_accepts(self, mu0):
        """Joint Wald acceptance of an arbitrary null point."""
        d = np.asarray(mu0, dtype=float) - self.estimate
        return float(d @ self._info @ d) <= self.chi2_threshold

    # stashed by wald_inference for ellipsoid_accepts
    _info: np.ndarray = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Interval:
    """Permutation confidence interval for one mean component.

    boundary_diagnostics maps "lower"/"upper" to per-side records with
    keys monotone_crossing (the outward scan was accepted up to the
    first rejection), open_ended (no rejection within the scan range,
    the reported bound is the last scanned point), scan (the probe
    trace as (value, p_value, accepted) triples), verified (the cold
    re-tests of the side's final values agreed with its warm tests;
    false when the side was redone cold) and warm_probes (the side's
    warm tests); the "center" entry records the point estimate the
    scan started from.
    """

    lower: float
    upper: float
    alpha: float
    center: float
    component: int
    boundary_diagnostics: dict


@dataclass(frozen=True)
class RegionGrid:
    """Joint permutation confidence region evaluated on a lattice.

    axis_components lists the mean components spanned by the grid; any
    remaining components are held fixed at the values in
    fixed_components, so the region is a slice through those points.
    Arrays statistic, threshold, p_value, accepted, failed all have
    shape (resolution_1, ..., resolution_k) matching axis_values.
    accepted is exactly p_value > alpha (equivalently statistic <=
    threshold); failed marks lattice points whose test could not be
    completed, which are reported as not accepted with NaN statistics.
    No smoothing or convexification is applied, so disconnected
    acceptance sets are reported as they are.
    """

    axis_components: tuple
    axis_values: tuple
    fixed_components: dict
    statistic: np.ndarray
    threshold: np.ndarray
    p_value: np.ndarray
    accepted: np.ndarray
    failed: np.ndarray
    alpha: float
    stat: str

    @property
    def shape(self):
        return self.statistic.shape

    def to_rows(self):
        """Flatten the lattice to rows (axis values..., statistic,
        threshold, accepted, p_value) in row-major order."""
        mesh = np.meshgrid(*self.axis_values, indexing="ij")
        rows = []
        for flat_idx in range(self.statistic.size):
            idx = np.unravel_index(flat_idx, self.shape)
            row = [float(m[idx]) for m in mesh]
            row += [
                float(self.statistic[idx]),
                float(self.threshold[idx]),
                bool(self.accepted[idx]),
                float(self.p_value[idx]),
            ]
            rows.append(row)
        return rows


def _checked_information_inverse(info):
    """Inverse of the mean information by _sym_inverse_flags; one that
    would take its pseudoinverse (singular or indefinite) is an error."""
    Iinv, _, _, pinv = _sym_inverse_flags(np.asarray(info, dtype=float))
    if pinv:
        raise SingularInformationError(
            "mean information matrix is singular; Wald quantities undefined"
        )
    return Iinv


def wald_inference(fit, alpha=0.05, mu_null=None):
    """Wald intervals and the joint ellipsoid test from a converged fit.

    Parameters
    ----------
    fit : FitResult
        Converged ML or REML fit.
    alpha : float
        Two-sided level for the intervals and the joint test.
    mu_null : array_like, optional
        Null point for the ellipsoid statistic; defaults to the zero
        vector.

    Raises
    ------
    SingularInformationError
        When the information matrix has no usable inverse.
    """
    if not fit.converged:
        raise ValueError("Wald inference requires a converged fit")
    _check_alpha(alpha)
    p = fit.mu.size
    info = fit.information
    cov = _checked_information_inverse(info)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    z = ndtri(1.0 - alpha / 2.0)
    mu0 = _finite_mean(np.zeros(p) if mu_null is None else mu_null, p, "mu_null")
    d = fit.mu - mu0
    stat = float(d @ info @ d)
    return WaldSummary(
        estimate=fit.mu.copy(),
        se=se,
        lower=fit.mu - z * se,
        upper=fit.mu + z * se,
        alpha=float(alpha),
        mu_null=mu0,
        chi2_statistic=stat,
        chi2_threshold=float(_chi2_ppf(1.0 - alpha, p)),
        p_value=_chi2_sf(stat, p),
        _info=info.copy(),
    )


class _Probes:
    """The t3 tests of one inversion, its searches and the warm starts they pass on.

    Built once per inversion: it resolves the default plan and structure
    and fits ML once for anchor and anchor_se, the component's ML
    estimate and its Wald standard error. Every test runs under the same
    data, component, plan and structure, so every test refits the same
    sign rows, one of each complementary pair the plan draws, in the
    plan's fixed order.
    solutions, kept only as long as this object, maps each tested null
    value to the free vectors those rows converged to there, nan where
    refit_rows gave the row to its scalar fallback or a tau reads as
    zero (see permutation._permuted_statistics). A warm test starts each row's
    refit from the line through its own vectors at the two nearest
    values tested before (nearest): consecutive probes lie close
    together, so the rows start near their solutions. A cold test
    starts every row at the test's observed fit, exactly as a standalone
    marginal_permutation_test does. The observed fit, its statistic and
    the flip center are the same either way. search decides which tests
    are warm. solutions holds one float per free parameter, per refit
    sign row, per tested value: about 150 kB for 60 tests of 100 rows at
    p = 2.
    """

    def __init__(self, data, component, plan, structure):
        self.data, self.component = data, component
        self.plan = _default_plan(plan, data.n_studies)
        self.structure = _require_structure(structure)
        fit = fit_ml(data, self.structure)
        cov = _checked_information_inverse(fit.information)
        self.anchor = float(fit.mu[component])
        self.anchor_se = float(np.sqrt(max(cov[component, component], 0.0)))
        self.solutions = {}

    def nearest(self, value):
        """Row solutions extrapolated to value from the stored ones, or None.

        Each row gets the line through its solutions at the two tested
        values nearest to value, evaluated at value; a row that is nan
        at either of them gets its solution at the nearest one, and so
        does every row when only one value is stored.
        """
        if not self.solutions:
            return None
        near = sorted(self.solutions, key=lambda v: abs(v - value))[:2]
        nearest = self.solutions[near[0]]
        if len(near) == 1:
            return nearest
        slope = (self.solutions[near[1]] - nearest) / (near[1] - near[0])
        line = nearest + (value - near[0]) * slope
        return np.where(np.isnan(line).any(axis=1, keepdims=True), nearest, line)

    def p_value(self, m, warm, signed):
        """p-value at m of a warm or cold test, stored with its solutions.

        signed gives the one-sided p-value of the signed marginal score;
        otherwise the p-value of the marginal test, as
        marginal_permutation_test gives it.
        """
        starts = self.nearest(m) if warm else None
        s_obs, roots, _, _, fold, self.solutions[m] = _marginal_signed_distribution(
            self.data, m, self.component, self.structure, self.plan, starts
        )
        if not signed:
            s_obs, roots = s_obs * s_obs, roots * roots
        return fold.null(roots, self.plan.mode, signed).p_value(s_obs)

    def search(self, verdict, log, inner, outer=None, step=None):
        """The last value where verdict holds, by scan and bisection, confirmed cold.

        verdict(m, warm) runs a warm or cold test at m (p_value) and
        returns (entry, holds): what the log records and whether the
        verdict holds. It holds at inner and, when outer is given, not
        at outer; both were tested cold, and log holds what their tests
        recorded. Given a step, the search first scans inner + step,
        inner + 2 step, ... for at most MAX_STEPS steps, up to the first
        value where the verdict fails, which becomes outer. It then
        halves the bracket, each midpoint replacing the end whose verdict
        it shares, until the ends lie within XTOL or no float lies
        between them.

        These tests are warm, except with one outcome: then every test is
        cold, because the only mean component is fixed, reflection about
        it leaves each row's likelihood unchanged, and so the observed fit
        is already every row's solution. Each final value tested warm is
        tested again cold, up to the first cold verdict that differs;
        these tests are not logged. If one differs, the search runs again
        with cold tests only. Either way both final values carry cold
        verdicts, and when every verdict agrees they equal what a search
        with cold tests alone returns, bit for bit.

        Returns (inner, outer, log, {"verified": ..., "warm_probes": ...}):
        the final values (outer None when the scan found no failing
        value) and the log with the search's tests after the given ones;
        verified is false when the search was redone, and warm_probes
        counts the warm tests of the first run.
        """

        def run(warm):
            trace = list(log)

            def holds(m):
                entry, ok = verdict(m, warm)
                trace.append(entry)
                return ok

            a, b = inner, outer
            for k in range(1, MAX_STEPS + 1 if step is not None else 1):
                m = inner + k * step
                if not holds(m):
                    b = m
                    break
                a = m
            while b is not None and abs(b - a) > XTOL:
                mid = 0.5 * (a + b)
                if mid in (a, b):
                    # adjacent floats wider than XTOL: nothing lies between
                    break
                if holds(mid):
                    a = mid
                else:
                    b = mid
            return a, b, trace

        warm = self.data.p > 1
        a, b, trace = run(warm)
        warm_probes = len(trace) - len(log) if warm else 0
        verified = not warm or all(
            verdict(m, False)[1] == side
            for m, side in ((a, True), (b, False))
            if m not in (inner, outer)
        )
        if not verified:
            a, b, trace = run(False)
        return a, b, trace, {"verified": verified, "warm_probes": warm_probes}

    def median_unbiased(self):
        """The median-unbiased estimate and its diagnostics; see median_unbiased_estimate."""
        lo = self.anchor - 4.0 * self.anchor_se
        hi = self.anchor + 4.0 * self.anchor_se

        def below(m, warm):
            # p is a step function; keep p(inner) <= 1/2 < p(outer) up to ties
            p = self.p_value(m, warm, signed=True)
            return (float(m), p), p <= 0.5

        ends = [below(m, False)[0] for m in (lo, hi)]
        (_, p_lo), (_, p_hi) = ends
        crossed = p_lo <= 0.5 <= p_hi
        value, trace, check = self.anchor, ends, {"verified": True, "warm_probes": 0}
        if crossed:
            inner, outer, trace, check = self.search(below, ends, lo, hi)
            value = 0.5 * (inner + outer)
        return float(value), {
            "crossed": bool(crossed),
            "bracket": (float(lo), float(hi)),
            "anchor": self.anchor,
            "anchor_se": self.anchor_se,
            "trace": trace,
            **check,
        }


def median_unbiased_estimate(data, component, plan=None, structure=None, *, full_output=False):
    """Median-unbiased point estimate of one mean component.

    Solves for the null value at which the one-sided permutation
    p-value of the signed marginal score equals one half, by bisection
    to XTOL (1e-4, working scale) within four Wald standard errors of
    the ML estimate. The one-sided p-value increases in the null value,
    so the solution balances the permutation distribution around the
    observed signed score.

    The bracket ends are tested cold, as standalone tests; the
    bisection's tests start from the solutions of the tests before them
    and its final pair is confirmed cold (see _Probes.search). So the
    estimate always lies between two values with cold verdicts, and it
    is the estimate of an all-cold bisection whenever the verdicts
    agree.

    Falls back to the ML component estimate when no crossing exists in
    the bracket; with full_output=True returns (value, diagnostics)
    where diagnostics reports crossed, the bracket, the probe trace of
    (null value, one-sided p-value) pairs (without the cold re-tests),
    verified (false when the bisection was redone cold) and warm_probes
    (the warm tests of the first bisection).
    """
    value, diagnostics = _Probes(data, component, plan, structure).median_unbiased()
    return (value, diagnostics) if full_output else value


def confidence_interval(data, component, alpha=0.05, plan=None, structure=None, *, center=None):
    """Permutation confidence interval for one mean component.

    Inverts the marginal permutation test: the interval is the set of
    null values whose test at level alpha does not reject. Starting
    from the median-unbiased estimate (or a supplied center), the scan
    moves outward in steps of STEP_FRACTION (a quarter) of the Wald
    standard error until the first rejection on each side, for at most
    MAX_STEPS (64) steps, then bisects the bracketing pair to XTOL
    (1e-4) on the working scale. The same sign plan is reused at every
    evaluated null, so acceptance is deterministic and the interval
    endpoints are well defined, and exact under the default plan up to
    12 studies. One ML fit gives both the Wald standard error and the
    anchor of the median-unbiased estimate.

    The center is tested cold, as a standalone test; each side's scan
    and bisection tests start from the solutions of the tests before
    them in this call, the median-unbiased estimate's included, and the
    side's final accepted and rejected values are confirmed cold (see
    _Probes.search). So each endpoint is accepted and its outer
    neighbour rejected by cold tests, the endpoints are those of an
    all-cold inversion whenever the verdicts agree, and the re-tests
    appear in no scan.

    A side with no rejection within the scan range reports the last
    scanned value with open_ended=True in its diagnostics. If the
    center itself is rejected the degenerate interval [center, center]
    is returned with monotone_crossing=False on both sides; the scan
    trace is always attached for inspection.
    """
    _check_alpha(alpha)
    probes = _Probes(data, component, plan, structure)
    if center is None:
        center, _ = probes.median_unbiased()
    center = float(center)

    def accepts(m, warm):
        p = probes.p_value(m, warm, signed=False)
        ok = p > alpha
        return (m, p, ok), ok

    center_log = [accepts(center, False)[0]]
    _, p_center, center_ok = center_log[0]
    diagnostics = {"center": {"value": center, "p_value": p_center, "accepted": center_ok}}
    bounds = {}
    for side, direction in (("lower", -1.0), ("upper", 1.0)):
        # a rejected center scans no further: the interval is [center, center]
        step = direction * (STEP_FRACTION * probes.anchor_se) if center_ok else None
        inner, outer, scan, check = probes.search(accepts, center_log, center, step=step)
        bounds[side] = inner
        diagnostics[side] = {
            "monotone_crossing": outer is not None,
            "open_ended": center_ok and outer is None,
            "scan": scan,
            **check,
        }
    return Interval(
        lower=float(min(bounds["lower"], center)),
        upper=float(max(bounds["upper"], center)),
        alpha=float(alpha),
        center=center,
        component=int(component),
        boundary_diagnostics=diagnostics,
    )


def _default_region_bounds(fit, components):
    """Bounding box of the Wald ellipse at REGION_ELLIPSE_LEVEL, inflated."""
    cov = _checked_information_inverse(fit.information)
    radius2 = _chi2_ppf(REGION_ELLIPSE_LEVEL, fit.mu.size)
    out = []
    for j in components:
        half = REGION_INFLATE * np.sqrt(radius2 * max(cov[j, j], 0.0))
        out.append((float(fit.mu[j] - half), float(fit.mu[j] + half)))
    return out


def _lattice_tests(data, mus, plan, stat, structure):
    """The joint test at each null mean, row of mus, in order, as an iterator.

    t2 tests are taken a chunk of means at a time: each chunk is set up
    in one batched pass and shares one product with the sign plan
    (permutation._moment_tests); a mean whose setup fails raises after
    the earlier means' results. t1 tests run one joint_permutation_test
    each, when the next result is asked for, so a mean whose test fails
    raises before the next one is tested.
    """
    if stat == "moment":
        return _moment_tests(data, mus, plan)
    return (
        joint_permutation_test(data, mu, plan=plan, stat=stat, structure=structure)
        for mu in mus
    )


def confidence_region(
    data,
    components=None,
    alpha=0.05,
    bounds=None,
    resolution=20,
    stat="cml",
    plan=None,
    structure=None,
):
    """Joint permutation confidence region on a lattice of null values.

    Runs the joint permutation test at every lattice point spanned by
    the chosen components; components not listed are held fixed at the
    ML estimate, so the output is a slice through that point. The grid
    covers the declared bounds exactly (linspace endpoints inclusive).
    Default bounds are the bounding box of the Wald ellipse at
    REGION_ELLIPSE_LEVEL (99.9 percent), widened by REGION_INFLATE (half
    again). Lattice points whose test fails are marked failed and not
    accepted rather than aborting the scan.

    The points are tested in row-major order. With stat="moment" (t2) a
    chunk of points is set up in one batched likelihood pass and shares
    one product with the sign plan (permutation._moment_tests), and each
    point's statistic, p-value and threshold are those of its own
    joint_permutation_test: bit for bit under an exhaustive plan; under
    a random plan a threshold can move in its last bits, where BLAS
    sums a row's product in another order.
    With stat="cml" (t1) each point runs its own joint_permutation_test.
    An error other than a failed test raises at the first point in
    order that meets it.

    Parameters
    ----------
    components : sequence of int, optional
        Mean components spanning the grid, at least two; defaults to
        all components.
    alpha : float
        Level of each lattice test, in (0, 1).
    bounds : sequence of (low, high), optional
        One finite pair per listed component.
    resolution : int
        Lattice points per axis, at least 20.
    structure : CovStructure, optional
        Unstructured when None; t2 takes no other (ValueError).
    """
    structure = _joint_structure(stat, structure)
    plan = _default_plan(plan, data.n_studies)
    _check_alpha(alpha)
    p = data.p
    if components is None:
        components = tuple(range(p))
    components = tuple(int(c) for c in components)
    if len(components) < 2:
        raise ValueError("a region needs at least two axis components")
    if len(set(components)) != len(components):
        raise ValueError("axis components must be distinct")
    for c in components:
        _check_component(c, p)
    if resolution < 20:
        raise ValueError("resolution must be at least 20 points per axis")
    # only default bounds and the fixed components read the ML fit, so a
    # region with explicit bounds over every component needs no fit
    fit = fit_ml(data, structure) if bounds is None or len(components) < p else None
    if bounds is None:
        bounds = _default_region_bounds(fit, components)
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    if len(bounds) != len(components):
        raise ValueError("need one (low, high) bound pair per axis component")
    for lo, hi in bounds:
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("region bounds must be finite with low < high")

    axis_values = tuple(np.linspace(lo, hi, resolution) for lo, hi in bounds)
    fixed = {j: float(fit.mu[j]) for j in range(p) if j not in components}
    shape = (resolution,) * len(components)
    # the lattice's null means, one row per point in row-major order
    size = resolution ** len(components)
    mus = np.empty((size, p))
    for j, v in fixed.items():
        mus[:, j] = v
    for j, values in zip(components, np.meshgrid(*axis_values, indexing="ij")):
        mus[:, j] = values.ravel()
    statistic = np.full(size, np.nan)
    threshold = np.full(size, np.nan)
    p_value = np.full(size, np.nan)
    failed = np.zeros(size, dtype=bool)

    done = 0
    while done < size:
        try:
            for res in _lattice_tests(data, mus[done:], plan, stat, structure):
                statistic[done] = res.statistic
                threshold[done] = res.distribution.threshold(alpha)
                p_value[done] = res.p_value
                done += 1
                # free this point's null before the next point forms its own
                del res
        except (NonConvergenceError, SingularInformationError):
            # the point under test failed; the scan goes on after it
            failed[done] = True
            done += 1
    return RegionGrid(
        axis_components=components,
        axis_values=axis_values,
        fixed_components=fixed,
        statistic=statistic.reshape(shape),
        threshold=threshold.reshape(shape),
        p_value=p_value.reshape(shape),
        accepted=(p_value > alpha).reshape(shape),
        failed=failed.reshape(shape),
        alpha=float(alpha),
        stat=stat,
    )
