"""Consumer-facing inference products built on the permutation tests.

Confidence regions come from scanning a lattice of joint null values,
confidence intervals from inverting the marginal test by outward scan
plus bisection, point estimates from solving for a one-sided signed
permutation p-value of one half, and Wald summaries from the fitted
information matrix. Every permutation test invoked here reuses one
fixed sign plan, so acceptance is a deterministic function of the null
value and the reported boundaries are well defined.
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
    _marginal_signed_distribution,
    joint_permutation_test,
    marginal_permutation_test,
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
    the reported bound is the last scanned point), and scan (the probe
    trace as (value, p_value, accepted) triples); the "center" entry
    records the point estimate the scan started from.
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


def _signed_p(data, value, component, structure, plan):
    """One-sided permutation p-value of the signed marginal score root."""
    s_obs, roots, _, _, _ = _marginal_signed_distribution(
        data, float(value), component, structure, plan
    )
    return NullDistribution(statistics=roots, mode=plan.mode).p_value(s_obs)


def _wald_anchor(data, component, structure):
    """ML estimate and Wald standard error of one component."""
    fit = fit_ml(data, structure)
    cov = _checked_information_inverse(fit.information)
    return float(fit.mu[component]), float(np.sqrt(max(cov[component, component], 0.0)))


def median_unbiased_estimate(data, component, plan=None, structure=None, *, full_output=False):
    """Median-unbiased point estimate of one mean component.

    Solves for the null value at which the one-sided permutation
    p-value of the signed marginal score equals one half, by bisection
    to XTOL (1e-4, working scale) within four Wald standard errors of
    the ML estimate. The one-sided p-value increases in the null value,
    so the solution balances the permutation distribution around the
    observed signed score.

    Falls back to the ML component estimate when no crossing exists in
    the bracket; with full_output=True returns (value, diagnostics)
    where diagnostics reports crossed, the bracket, and the probe trace.
    """
    structure = _require_structure(structure)
    plan = _default_plan(plan)
    anchor, anchor_se = _wald_anchor(data, component, structure)
    lo, hi = anchor - 4.0 * anchor_se, anchor + 4.0 * anchor_se
    trace = []

    def f(m):
        val = _signed_p(data, m, component, structure, plan) - 0.5
        trace.append((float(m), float(val + 0.5)))
        return val

    f_lo, f_hi = f(lo), f(hi)
    crossed = f_lo <= 0.0 <= f_hi
    if not crossed:
        value = anchor
    else:
        a, b = lo, hi
        while b - a > XTOL:
            mid = 0.5 * (a + b)
            # p is a step function; keep f(a) <= 0 < f(b) up to ties
            if f(mid) <= 0.0:
                a = mid
            else:
                b = mid
        value = 0.5 * (a + b)
    if full_output:
        return float(value), {
            "crossed": bool(crossed),
            "bracket": (float(lo), float(hi)),
            "anchor": anchor,
            "anchor_se": anchor_se,
            "trace": trace,
        }
    return float(value)


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
    endpoints are well defined.

    A side with no rejection within the scan range reports the last
    scanned value with open_ended=True in its diagnostics. If the
    center itself is rejected the degenerate interval [center, center]
    is returned with monotone_crossing=False on both sides; the scan
    trace is always attached for inspection.
    """
    structure = _require_structure(structure)
    plan = _default_plan(plan)
    _check_alpha(alpha)
    _, anchor_se = _wald_anchor(data, component, structure)
    if center is None:
        center = median_unbiased_estimate(data, component, plan, structure)
    center = float(center)
    step = STEP_FRACTION * anchor_se

    def probe(m):
        res = marginal_permutation_test(data, m, component, plan=plan, structure=structure)
        return res.p_value, res.p_value > alpha

    p_center, center_ok = probe(center)
    diagnostics = {"center": {"value": center, "p_value": p_center, "accepted": center_ok}}
    bounds = {}
    for side, direction in (("lower", -1.0), ("upper", 1.0)):
        scan = [(center, p_center, center_ok)]
        inner = center
        outer = None
        # a rejected center scans no further: the interval is [center, center]
        for k in range(1, MAX_STEPS + 1 if center_ok else 1):
            m = center + direction * k * step
            p, ok = probe(m)
            scan.append((m, p, ok))
            if ok:
                inner = m
            else:
                outer = m
                break
        # bisect the accepted/rejected bracket; report the accepted end
        while outer is not None and abs(outer - inner) > XTOL:
            mid = 0.5 * (inner + outer)
            p, ok = probe(mid)
            scan.append((mid, p, ok))
            if ok:
                inner = mid
            else:
                outer = mid
        bounds[side] = inner
        diagnostics[side] = {
            "monotone_crossing": outer is not None,
            "open_ended": center_ok and outer is None,
            "scan": scan,
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
