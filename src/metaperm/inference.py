"""Consumer-facing inference products built on the permutation tests.

Confidence regions come from scanning a lattice of joint null values,
confidence intervals from inverting the marginal test by outward scan
plus bisection, point estimates from solving for a one-sided signed
permutation p-value of one half, and Wald summaries from the fitted
information matrix. The point estimate and each side of the interval
share one bisection, _bisect, and an interval fits ML once for both its
step size and its point estimate. Every permutation test invoked here
reuses one fixed sign plan, so acceptance is a deterministic function
of the null value and the reported boundaries are well defined. Within
one inversion each test's sign-row refits start from the rows' own
solutions at the nearest earlier null value (_Probes), and cold
re-tests confirm every reported boundary (_cold_checked).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc, gammaincinv, ndtri

from .estimators import fit_ml
from .exceptions import NonConvergenceError, SingularInformationError
from .model import RCOND, _check_component, _finite_mean, _require_structure
from .permutation import (
    NullDistribution,
    _default_plan,
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
    "overall_null_test",
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


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")


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
    """Inverse of the mean information; singular matrices are an error."""
    info = np.asarray(info, dtype=float)
    w, Q = np.linalg.eigh(info)
    if w[0] <= RCOND * max(w[-1], 0.0) or w[-1] <= 0.0:
        raise SingularInformationError(
            "mean information matrix is singular; Wald quantities undefined"
        )
    return (Q / w) @ Q.T


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


def overall_null_test(data, plan=None, structure=None, stat="cml"):
    """Joint permutation test of the all-zeros mean null."""
    return joint_permutation_test(
        data, np.zeros(data.p), plan=plan, stat=stat, structure=structure
    )


def _wald_anchor(data, component, structure):
    """ML estimate and Wald standard error of one component."""
    fit = fit_ml(data, structure)
    cov = _checked_information_inverse(fit.information)
    return float(fit.mu[component]), float(np.sqrt(max(cov[component, component], 0.0)))


def _bisect(accepts, inner, outer):
    """Halve the bracket until |outer - inner| <= XTOL; returns (inner, outer).

    accepts(inner) holds and accepts(outer) does not; each midpoint
    replaces the end whose verdict it shares. Inside an inversion the
    midpoints are warm tests (see _Probes), and _cold_checked confirms
    the returned pair with cold tests.
    """
    while abs(outer - inner) > XTOL:
        mid = 0.5 * (inner + outer)
        if accepts(mid):
            inner = mid
        else:
            outer = mid
    return inner, outer


class _Probes:
    """The t3 tests of one inversion, which pass solutions from test to test.

    Every test runs under the same data, component, plan and structure.
    starts, kept only as long as this object, maps each tested null
    value to the free vectors the plan's distinct sign rows converged to
    there (see permutation._refit_distribution). A warm test starts each
    row's refit from its own vector at the nearest value tested before:
    consecutive probes lie close together, so the rows start near their
    solutions. A cold test starts every row at the test's observed fit,
    exactly as a standalone marginal_permutation_test does. The observed
    fit, its statistic and the flip center are the same either way.
    With one outcome every test is cold: the only mean component is
    fixed, reflection about it leaves each row's likelihood unchanged,
    and so the observed fit is already every row's solution.
    starts holds one float per free parameter, per distinct sign row,
    per tested value: about 150 kB for 60 tests of 100 rows at p = 2.
    cold holds the values whose latest test was cold; n_warm counts the
    warm tests.
    """

    def __init__(self, data, component, plan, structure):
        self.data, self.component, self.plan, self.structure = data, component, plan, structure
        self.starts = {}
        self.cold = set()
        self.n_warm = 0

    def _signed(self, m, warm):
        warm = warm and self.data.p > 1 and bool(self.starts)
        s_obs, roots, _, _, _ = _marginal_signed_distribution(
            self.data, m, self.component, self.structure, self.plan,
            starts=self.starts, warm=warm,
        )
        if warm:
            self.n_warm += 1
            self.cold.discard(m)
        else:
            self.cold.add(m)
        return s_obs, roots

    def signed_p(self, m, warm=True):
        """One-sided p-value of the signed marginal score at m."""
        s_obs, roots = self._signed(m, warm)
        return NullDistribution(statistics=roots, mode=self.plan.mode).p_value(s_obs)

    def p_value(self, m, warm=True):
        """p-value of the marginal test at m, as marginal_permutation_test gives it."""
        s_obs, roots = self._signed(m, warm)
        null = NullDistribution(statistics=roots * roots, mode=self.plan.mode)
        return null.p_value(s_obs * s_obs)


def _cold_checked(search, holds, probes):
    """Run one search of an inversion warm and confirm its final bracket cold.

    search(warm) runs a scan or bisection with warm or cold tests and
    returns (inner, outer, log): its final value on the side where
    holds, its final value on the other side (None when the scan found
    none) and the probes it recorded. Each final value whose latest test
    was warm is tested again cold, holds(m) giving the cold verdict;
    these tests are not logged. If a cold verdict differs, the search
    runs again with cold tests only. Either way both returned values
    carry cold verdicts, and when every verdict agrees they equal what
    a search with cold tests alone returns, bit for bit.
    Returns (inner, outer, log, {"verified": ..., "warm_probes": ...}):
    verified is false when the search was redone; warm_probes counts
    the warm tests of the first run.
    """
    n_warm = probes.n_warm
    inner, outer, log = search(True)
    warm_probes = probes.n_warm - n_warm
    verified = all(
        holds(m) == side
        for m, side in ((inner, True), (outer, False))
        if m is not None and m not in probes.cold
    )
    if not verified:
        inner, outer, log = search(False)
    return inner, outer, log, {"verified": verified, "warm_probes": warm_probes}


def _median_unbiased(probes, anchor, anchor_se):
    """The median-unbiased estimate bracketed around a Wald anchor.

    Both bracket ends are tested cold, the bisection warm and its final
    pair confirmed cold (_cold_checked). Returns (value, diagnostics);
    see median_unbiased_estimate.
    """
    lo, hi = anchor - 4.0 * anchor_se, anchor + 4.0 * anchor_se
    p_lo, p_hi = probes.signed_p(lo, warm=False), probes.signed_p(hi, warm=False)
    ends = [(float(lo), p_lo), (float(hi), p_hi)]

    def search(warm):
        trace = list(ends)

        def below(m):
            p = probes.signed_p(m, warm)
            trace.append((float(m), p))
            return p <= 0.5

        # p is a step function; keep p(inner) <= 1/2 < p(outer) up to ties
        inner, outer = _bisect(below, lo, hi)
        return inner, outer, trace

    crossed = p_lo <= 0.5 <= p_hi
    value, trace, check = anchor, ends, {"verified": True, "warm_probes": 0}
    if crossed:
        inner, outer, trace, check = _cold_checked(
            search, lambda m: probes.signed_p(m, warm=False) <= 0.5, probes
        )
        value = 0.5 * (inner + outer)
    return float(value), {
        "crossed": bool(crossed),
        "bracket": (float(lo), float(hi)),
        "anchor": anchor,
        "anchor_se": anchor_se,
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

    The bracket ends are tested cold: every sign row's refit starts at
    the test's observed fit, as in a standalone test. Each bisection
    test starts every row from its own solution at the nearest null
    value tested before, which saves refit iterations (with one
    outcome every test is cold; see _Probes). The final bisection pair
    is then tested again cold; if either verdict differs, the bisection
    is redone cold from the bracket. So the estimate always lies
    between two values with cold verdicts, and it is the estimate of an
    all-cold bisection whenever the verdicts agree. The solutions are
    kept only for the duration of the call.

    Falls back to the ML component estimate when no crossing exists in
    the bracket; with full_output=True returns (value, diagnostics)
    where diagnostics reports crossed, the bracket, the probe trace of
    (null value, one-sided p-value) pairs (without the cold re-tests),
    verified (false when the bisection was redone cold) and warm_probes
    (the warm tests of the first bisection).
    """
    structure = _require_structure(structure)
    plan = _default_plan(plan)
    anchor, anchor_se = _wald_anchor(data, component, structure)
    probes = _Probes(data, component, plan, structure)
    value, diagnostics = _median_unbiased(probes, anchor, anchor_se)
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
    endpoints are well defined. One ML fit gives both the Wald standard
    error and the anchor of the median-unbiased estimate.

    The center is tested cold, as a standalone test: every sign row's
    refit starts at the test's observed fit. Every later scan and
    bisection test starts each row from its own solution at the nearest
    null value tested before in this call, the median-unbiased
    estimate's probes included. When a side's scan and bisection end,
    its final accepted and rejected values are tested again cold; if
    either verdict differs, that side is redone with cold tests only.
    So each endpoint is accepted and its outer neighbour rejected by
    cold tests, the endpoints are those of an all-cold inversion
    whenever the verdicts agree, and the re-tests appear in no scan.
    The solutions are kept only for the duration of the call.

    A side with no rejection within the scan range reports the last
    scanned value with open_ended=True in its diagnostics. If the
    center itself is rejected the degenerate interval [center, center]
    is returned with monotone_crossing=False on both sides; the scan
    trace is always attached for inspection.
    """
    structure = _require_structure(structure)
    plan = _default_plan(plan)
    _check_alpha(alpha)
    anchor, anchor_se = _wald_anchor(data, component, structure)
    probes = _Probes(data, component, plan, structure)
    if center is None:
        center, _ = _median_unbiased(probes, anchor, anchor_se)
    center = float(center)
    step = STEP_FRACTION * anchor_se

    p_center = probes.p_value(center, warm=False)
    center_ok = p_center > alpha
    diagnostics = {"center": {"value": center, "p_value": p_center, "accepted": center_ok}}
    bounds = {}
    for side, direction in (("lower", -1.0), ("upper", 1.0)):

        def search(warm, direction=direction):
            scan = [(center, p_center, center_ok)]

            def accepts(m):
                p = probes.p_value(m, warm)
                scan.append((m, p, p > alpha))
                return p > alpha

            inner, outer = center, None
            # a rejected center scans no further: the interval is [center, center]
            for k in range(1, MAX_STEPS + 1 if center_ok else 1):
                m = center + direction * k * step
                if not accepts(m):
                    outer = m
                    break
                inner = m
            if outer is not None:
                # bisect the accepted/rejected bracket; report the accepted end
                inner, outer = _bisect(accepts, inner, outer)
            return inner, outer, scan

        inner, outer, scan, check = _cold_checked(
            search, lambda m: probes.p_value(m, warm=False) > alpha, probes
        )
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
    """
    structure = _require_structure(structure)
    plan = _default_plan(plan)
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
    statistic = np.full(shape, np.nan)
    threshold = np.full(shape, np.nan)
    p_value = np.full(shape, np.nan)
    accepted = np.zeros(shape, dtype=bool)
    failed = np.zeros(shape, dtype=bool)

    mu0 = np.empty(p)
    for j, v in fixed.items():
        mu0[j] = v
    for flat_idx in range(statistic.size):
        idx = np.unravel_index(flat_idx, shape)
        for axis, j in enumerate(components):
            mu0[j] = axis_values[axis][idx[axis]]
        try:
            res = joint_permutation_test(data, mu0, plan=plan, stat=stat, structure=structure)
        except (NonConvergenceError, SingularInformationError):
            failed[idx] = True
            continue
        statistic[idx] = res.statistic
        threshold[idx] = res.distribution.threshold(alpha)
        p_value[idx] = res.p_value
        accepted[idx] = res.p_value > alpha
    return RegionGrid(
        axis_components=components,
        axis_values=axis_values,
        fixed_components=fixed,
        statistic=statistic,
        threshold=threshold,
        p_value=p_value,
        accepted=accepted,
        failed=failed,
        alpha=float(alpha),
        stat=stat,
    )
