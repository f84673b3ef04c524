"""Estimators for the multivariate random-effects model.

Every heterogeneity fit maximizes one objective, _neg_profiled_free: the
log-likelihood with some mean components held fixed and the rest
profiled out by generalized least squares. All components fixed gives
the joint null of fit_eta_given_mu and the ML heterogeneity step; one
fixed gives the marginal null of fit_marginal_null; none fixed with the
restricted term gives REML. The constrained fits are one L-BFGS-B run
each (_lbfgs_refit); ML and REML alternate a GLS mean update with that
heterogeneity step. refit_rows runs the constrained fit for many
sign-flipped outcome sets at once, by a batched Newton kernel with one
scalar L-BFGS-B run for each row the kernel leaves unconverged. The
sign-invariant method-of-moments between-study covariance with
truncation completes the module.

Every likelihood evaluation is model.py's pass; the scalar objective
adds only the REML term and the batched kernel _row_terms only the
Fisher and observed curvatures of its Newton steps.

The heterogeneity step optimizes a smooth unconstrained
reparameterization (log between-study SDs, atanh correlations) with
analytic gradients, so refits from a warm start cost a handful of
function evaluations.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .exceptions import (
    DataError,
    NonConvergenceError,
    SingularInformationError,
)
from .model import (
    EPS_PSD,
    HetParams,
    _assemble_cov,
    _check_component,
    _clip_psd,
    _finite_mean,
    _gls_profile,
    _loglik_terms,
    _require_definite,
    _require_structure,
    _scatter,
    _weights,
    between_cov,
    model_terms,
)

__all__ = [
    "FitResult",
    "CmlResult",
    "fit_ml",
    "fit_reml",
    "fit_eta_given_mu",
    "fit_marginal_null",
    "moment_between_cov",
]

# alternating fits stop once no parameter moves by more than TOL, and
# give up after MAX_OUTER rounds; one L-BFGS-B run takes at most
# MAX_INNER iterations
TOL = 1e-8
MAX_OUTER = 500
MAX_INNER = 200

TAU_MIN = 1e-8
TAU_MAX = 1e3
# atanh-scale box for correlations; tanh(6) leaves |kappa| <= 0.9999877,
# beyond which the likelihood is flat to machine precision
ZETA_MAX = 6.0
# reported tau at or below this reads as a boundary zero: on the log scale
# the likelihood is flat below the optimizer's ftol long before the tau
# floor is reached, so boundary solutions stall around 1e-5 rather than
# descending to TAU_MIN; tau^2 <= 1e-8 is zero at any plausible data scale
TAU_SNAP = 1e-4

# objective value reported where the trial heterogeneity is invalid
# (indefinite marginal covariance, singular mean system); its gradient is
# zero, so a result at this value is never a converged fit
PENALTY = 1e13

# batched refits (refit_rows): a row stops once its projected gradient is
# at most ROW_PGTOL, tighter than the scalar fitter's gtol of 1e-8; rows
# still moving after ROW_MAX_ITER steps get a scalar L-BFGS-B refit
ROW_PGTOL = 1e-9
ROW_MAX_ITER = 100
# Armijo sufficient-decrease constant and step halvings per iteration;
# after the full step, the pending rows try up to LADDER halvings in one
# evaluation
ARMIJO_C = 1e-4
MAX_HALVINGS = 30
LADDER = 8
# eigenvalue floor of a step's curvature, relative to its largest
CURVATURE_FLOOR = 1e-12

# secondary stop for alternating fits: objective stationary to this
# relative level counts as converged even if parameters still jitter
LL_STATIONARY = 1e-10


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of an unconstrained (ML or REML) fit.

    loglik is the maximized objective: the log-likelihood for ML and the
    restricted log-likelihood for REML. loglik_trace records the
    objective after each outer iteration.
    """

    mu: np.ndarray
    het: HetParams
    sigma: np.ndarray
    information: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    pseudoinverse_used: bool
    method: str
    loglik_trace: tuple


@dataclass(frozen=True, eq=False)
class CmlResult:
    """Outcome of a constrained fit with mean components held fixed.

    mu is the whole mean: the fixed components at their values, the free
    ones profiled by GLS at the fit. sigma is between_cov(het).
    """

    het: HetParams
    mu: np.ndarray
    sigma: np.ndarray
    loglik: float
    converged: bool
    iterations: int


def _pairs(p):
    return [(j, k) for j in range(p) for k in range(j + 1, p)]


def _bounds(structure, p):
    nt = structure.n_tau(p)
    nk = structure.n_kappa(p)
    return [(np.log(TAU_MIN), np.log(TAU_MAX))] * nt + [(-ZETA_MAX, ZETA_MAX)] * nk


def _unpack_rows(X, structure, p):
    """Free vectors (R, m) -> tau (R, p), correlation matrices and raw Sigma (R, p, p)."""
    nt = structure.n_tau(p)
    tau = np.exp(X[:, :nt])
    if structure.kind == "cs1":
        tau = np.repeat(tau, p, axis=1)
    if structure.kind == "unstructured":
        K = np.zeros((X.shape[0], p, p))
        z = np.tanh(X[:, nt:])
        for a, (j, k) in enumerate(_pairs(p)):
            K[:, j, k] = K[:, k, j] = z[:, a]
    else:
        K = np.full((X.shape[0], p, p), structure.kappa0)
    K.reshape(X.shape[0], -1)[:, :: p + 1] = 1.0
    sigma = K * (tau[:, :, None] * tau[:, None, :])
    return tau, K, sigma


def _unpack(x, structure, p):
    """Free vector -> (tau length p, correlation matrix, raw Sigma)."""
    tau, K, sigma = _unpack_rows(np.asarray(x)[None], structure, p)
    return tau[0], K[0], sigma[0]


def _pack(het, structure):
    """Heterogeneity parameters -> free vector (clipped into bounds)."""
    p = het.p
    if structure.kind == "cs1":
        taus = np.array([float(np.mean(het.tau))])
    else:
        taus = het.tau
    x = [np.log(np.clip(taus, TAU_MIN, TAU_MAX))]
    if structure.kind == "unstructured":
        kmax = np.tanh(ZETA_MAX)
        K = het.kappa if het.kappa is not None else np.eye(p)
        x.append(np.arctanh(np.clip([K[j, k] for j, k in _pairs(p)], -kmax, kmax)))
    return np.concatenate(x) if len(x) > 1 else np.asarray(x[0])


def _het_from_free(x, structure, p):
    tau_full, K, _ = _unpack(x, structure, p)
    tau_full = np.where(tau_full <= TAU_SNAP, 0.0, tau_full)
    kappa = K if structure.kind == "unstructured" else None
    return HetParams(tau=tau_full, kappa=kappa)


def _natural(x, structure, p):
    tau_full, K, _ = _unpack(x, structure, p)
    off = np.array([K[j, k] for j, k in _pairs(p)]) if p > 1 else np.empty(0)
    return np.concatenate([tau_full, off])


def _chain_grad(G, tau_full, K, structure, p):
    """Gradient in Sigma -> gradient in the free vector."""
    dl_dtau = 2.0 * (G * K * tau_full[None, :]).sum(axis=1)
    if structure.kind == "cs1":
        g_tau = np.array([float((dl_dtau * tau_full).sum())])
    else:
        g_tau = dl_dtau * tau_full
    if structure.kind != "unstructured":
        return g_tau
    g_kappa = np.array(
        [2.0 * G[j, k] * tau_full[j] * tau_full[k] * (1.0 - K[j, k] ** 2) for j, k in _pairs(p)]
    )
    return np.concatenate([g_tau, g_kappa])


def _neg_profiled_free(data, structure, fixed, values, restricted=False, Ys=None):
    """Objective closure: -loglik and its gradient in the free vector.

    One likelihood pass of model.py per trial heterogeneity: weights,
    GLS profile and log-likelihood terms. The mean components listed in
    fixed are held at values; the others are profiled out. All
    components fixed is the joint null (and the ML heterogeneity step
    at the current mean), one fixed the marginal null. The score in the
    profiled components vanishes at their GLS update, so the profile
    adds no gradient term. restricted=True, with nothing fixed, is
    REML: the objective adds -0.5 log|A| of the information
    A = sum_i W_i, and dl/dSigma gains 0.5 sum_i W_i A^{-1} W_i. Ys,
    one array (n, k) per mask group, replaces the data's outcomes.
    """
    p = data.p

    def fun(x):
        tau_full, K, sigma = _unpack(x, structure, p)
        blocks, indefinite, _ = _weights(data, sigma, Ys)
        if indefinite:
            return PENALTY, np.zeros_like(x)
        mu, Ainv, logdet_A, indefinite, _ = _gls_profile(blocks, p, fixed, values)
        if indefinite:
            return PENALTY, np.zeros_like(x)
        ll, G, _ = _loglik_terms(blocks, p, mu, Ainv if restricted else None)
        if restricted:
            ll -= 0.5 * float(logdet_A)
        return -float(ll), -_chain_grad(G, tau_full, K, structure, p)

    return fun


def _optimize_eta(fun, x0, bounds):
    res = minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": MAX_INNER, "maxcor": 20, "ftol": 1e-13, "gtol": 1e-8},
    )
    ok = bool(res.success)
    if res.fun >= PENALTY:
        # the penalty's zero gradient passes any stationarity test
        ok = False
    elif not ok and np.isfinite(res.fun):
        # accept boundary solutions: judge by the projected gradient step
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        proj = np.clip(res.x - res.jac, lo, hi) - res.x
        ok = bool(np.max(np.abs(proj)) < 1e-5)
    return res.x, -float(res.fun), ok, int(res.nit)


def _gls_mean(data, sigma):
    """GLS mean of every component at sigma; returns (mu, used_pinv)."""
    blocks, indefinite, pinv = _weights(data, sigma)
    mu, Ainv, _, indefinite_A, pinv_A = _gls_profile(blocks, data.p, (), ())
    _require_definite(indefinite | indefinite_A)
    if not Ainv.any():
        # every eigenvalue of the information is at or below zero
        raise SingularInformationError("information matrix carries no mass")
    return mu, bool(pinv | pinv_A)


def _naive_mean(data):
    return np.where(data.observed, data.Y, 0.0).sum(axis=0) / data.observed.sum(axis=0)


def _default_init(data, mu, structure):
    """Starting free vector: moment diagonal when computable, else tau=0.1."""
    p = data.p
    if data.complete:
        sigma_mom, _ = moment_between_cov(data, mu)
        tau0 = np.sqrt(np.maximum(np.diag(sigma_mom), 1e-4))
    else:
        tau0 = np.full(p, 0.1)
    het0 = HetParams(tau=tau0, kappa=np.eye(p) if structure.kind == "unstructured" else None)
    return _pack(het0, structure)


def _alternating_fit(data, structure, method):
    structure = _require_structure(structure)
    if data.n_studies < 2:
        raise DataError("fitting requires at least two studies")
    p = data.p
    x = _default_init(data, _naive_mean(data), structure)
    bounds = _bounds(structure, p)
    restricted = (
        _neg_profiled_free(data, structure, (), (), restricted=True) if method == "reml" else None
    )
    mu = None
    trace = []
    pinv_used = False
    converged = False
    iterations = 0
    stalled = 0
    for iterations in range(1, MAX_OUTER + 1):
        mu_new, used = _gls_mean(data, _unpack(x, structure, p)[2])
        pinv_used |= used
        objective = restricted if restricted is not None else _neg_profiled_free(
            data, structure, np.arange(p), mu_new
        )
        x_new, ll, ok, _ = _optimize_eta(objective, x, bounds)
        delta = np.inf
        settled = False
        if mu is not None:
            delta = max(
                np.max(np.abs(mu_new - mu)),
                np.max(np.abs(_natural(x_new, structure, p) - _natural(x, structure, p))),
            )
            # parameter jitter at the optimizer's floor cannot shrink the
            # objective further; a stationary objective is the fixed point
            settled = abs(ll - trace[-1]) <= LL_STATIONARY * (1.0 + abs(ll))
        trace.append(ll)
        mu, x = mu_new, x_new
        if delta < TOL or settled:
            if ok:
                converged = True
                break
            stalled += 1
            if stalled >= 2:
                break
    result = _finalize(data, x, structure, method, tuple(trace), iterations, pinv_used, converged)
    if not converged:
        raise NonConvergenceError(
            f"{method.upper()} fit did not converge in {MAX_OUTER} outer iterations",
            last_result=result,
        )
    return result


def fit_ml(data, structure=None):
    """Maximum likelihood fit by alternating mean and heterogeneity updates.

    The mean step is generalized least squares at the current
    heterogeneity; the heterogeneity step maximizes the likelihood at the
    updated mean in one L-BFGS-B run of at most MAX_INNER (200)
    iterations. Iterates until the largest parameter change falls below
    TOL (1e-8), or the objective is stationary, for at most MAX_OUTER
    (500) rounds.

    Raises
    ------
    NonConvergenceError
        When MAX_OUTER rounds pass without convergence; carries the last
        iterate.
    SingularInformationError
        When the weight sum carries no information about the mean.
    """
    return _alternating_fit(data, structure, "ml")


def fit_reml(data, structure=None):
    """REML fit: heterogeneity maximizes the restricted log-likelihood.

    The restricted objective internally profiles the mean, so the outer
    alternation settles within a couple of rounds; the reported mean is
    the generalized-least-squares mean at the REML heterogeneity. The
    stopping rule and budgets are fit_ml's.
    """
    return _alternating_fit(data, structure, "reml")


def _finalize(data, x, structure, method, trace, iterations, pinv_used, converged):
    p = data.p
    het = _het_from_free(x, structure, p)
    sigma = between_cov(het, structure)
    mu, used = _gls_mean(data, sigma)
    t = model_terms(data, mu, sigma)
    if method == "reml":
        loglik = -_neg_profiled_free(data, structure, (), (), restricted=True)(x)[0]
    else:
        loglik = t.loglik
    return FitResult(
        mu=mu,
        het=het,
        sigma=sigma,
        information=t.information,
        loglik=float(loglik),
        converged=converged,
        iterations=iterations,
        pseudoinverse_used=bool(pinv_used or used or t.used_pinv),
        method=method,
        loglik_trace=trace,
    )


def _lbfgs_refit(data, fixed, values, structure, x0, Ys=None):
    """One L-BFGS-B run of _neg_profiled_free from x0, fixed components at values.

    Ys, one array (n, k) per mask group, replaces the data's outcomes.
    Returns (x, mu, loglik, ok, iterations), mu the whole mean with the
    free components profiled by GLS at x, so their score vanishes
    exactly at the returned point.
    """
    p = data.p
    fun = _neg_profiled_free(data, structure, fixed, values, Ys=Ys)
    x, ll, ok, nit = _optimize_eta(fun, x0, _bounds(structure, p))
    mu = values.copy()
    if fixed.size < p:
        blocks, indefinite, _ = _weights(data, _unpack(x, structure, p)[2], Ys)
        mu, _, _, indefinite_A, _ = _gls_profile(blocks, p, fixed, values)
        _require_definite(indefinite | indefinite_A)
    return x, mu, ll, ok, nit


def _fit_constrained(data, fixed, values, structure, init):
    """Constrained ML of the heterogeneity with the fixed mean components at values.

    One _lbfgs_refit from init, or from the moment-based start. Returns
    a CmlResult whose mu is the whole mean, its free components profiled
    at the fit; raises NonConvergenceError carrying it when the
    optimizer does not converge.
    """
    structure = _require_structure(structure)
    fixed = np.asarray(fixed, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    if init is not None:
        x0 = _pack(init, structure)
    else:
        mu0 = _naive_mean(data)
        mu0[fixed] = values
        x0 = _default_init(data, mu0, structure)
    x, mu, ll, ok, nit = _lbfgs_refit(data, fixed, values, structure, x0)
    het = _het_from_free(x, structure, data.p)
    result = CmlResult(
        het=het,
        mu=mu,
        sigma=between_cov(het, structure),
        loglik=ll,
        converged=ok,
        iterations=nit,
    )
    if not ok:
        raise NonConvergenceError("constrained fit did not converge", last_result=result)
    return result


def fit_eta_given_mu(data, mu_null, structure=None, *, init=None):
    """Constrained ML of the heterogeneity with the whole mean fixed.

    Parameters
    ----------
    init : HetParams, optional
        Warm start; defaults to the moment-based initialization.

    Raises
    ------
    NonConvergenceError
        Carries the last iterate in ``last_result``.
    """
    mu = _finite_mean(mu_null, data.p, "null mean")
    return _fit_constrained(data, np.arange(data.p), mu, structure, init)


def fit_marginal_null(data, value, component, structure=None, *, init=None):
    """Constrained ML with one mean component fixed, the rest free.

    The heterogeneity maximizes the likelihood with the other mean
    components profiled out by generalized least squares at every trial
    point; mu reports them at the fit. Any component may be the fixed
    one; for p=1 this is fit_eta_given_mu. iterations counts L-BFGS-B
    iterations.

    Raises
    ------
    NonConvergenceError
        Carries the last iterate in ``last_result``.
    """
    value = float(value)
    _check_component(component, data.p)
    if not np.isfinite(value):
        raise ValueError("null value must be finite")
    return _fit_constrained(data, [component], [value], structure, init)


def sigma_rows(X, structure, p):
    """between_cov(_het_from_free(x)) for every row of X, shape (R, p, p).

    Snaps tau at or below TAU_SNAP to zero, as the scalar path does, and
    assembles through the same _assemble_cov.
    """
    tau, K, _ = _unpack_rows(X, structure, p)
    return _assemble_cov(np.where(tau <= TAU_SNAP, 0.0, tau), K)


def tau_reads_zero(X, structure, p):
    """Whether a free vector, or each row of X, has a tau that reads as zero (TAU_SNAP).

    The objective is flat in log tau there whatever the outcomes, so such
    a vector says nothing about where a row's solution lies: refit_rows
    starts no row from one, and the solutions of permutation's refit
    tests are nan where one holds.
    """
    return (X[..., : structure.n_tau(p)] <= np.log(TAU_SNAP)).any(axis=-1)


def _derivative_patterns(structure, p):
    """Constant patterns of dSigma/dx.

    dSigma/dlog(tau_j) = Sigma * Mt[j] with Mt[j][r, c] = [r == j] + [c == j]
    (all twos for the shared tau of cs1), and dSigma/datanh(kappa_jk) =
    (1 - kappa_jk^2) tau_j tau_k Pk[a], Pk[a] the symmetric unit pattern
    of pair a. Differentiating once more multiplies any dSigma/dx_b by
    Mt[j] for a tau coordinate, and a kappa pattern by -2 kappa_jk for
    its own coordinate; mixed kappa pairs vanish.
    """
    if structure.kind == "cs1":
        Mt = np.full((1, p, p), 2.0)
    else:
        eye = np.eye(p)
        Mt = eye[:, :, None] + eye[:, None, :]
    pairs = _pairs(p) if structure.kind == "unstructured" else []
    Pk = np.zeros((len(pairs), p, p))
    for a, (j, k) in enumerate(pairs):
        Pk[a, j, k] = Pk[a, k, j] = 1.0
    return Mt, Pk


def _row_terms(data, Ys, X, fixed, values, free, structure, Mt, Pk):
    """Objective, gradient and both curvatures of every row at X.

    One likelihood pass over all rows gives f, the negative profiled
    log-likelihood of _neg_profiled_free (unrestricted; the components
    in free profiled by GLS, those in fixed held at values), and g, its
    gradient in the free vector. This adds fisher, the expected
    information 1/2 sum_i tr(W_i E_a W_i E_b) with E_a = dSigma/dx_a on
    study i's observed block, and obs, the Hessian of f including the
    curvature of the mean profile. Both come from three moments of each
    row's studies, sums over i of vec(W_i) vec(W_i)', vec(W_i)
    vec(s_i s_i)' and vec(W_i) s_i' with s_i = W_i (y_i - mu), taken in
    one product per mask group and scattered to p-space; two more
    products contract them with the vec(E_a). Rows whose marginal
    covariance or mean system is indefinite or singular get f = inf.

    Returns (f, g, fisher, obs, mu), mu the whole profiled mean (R, p).
    """
    p = data.p
    pp = p * p
    R = X.shape[0]
    nt = Mt.shape[0]
    tau, K, sigma = _unpack_rows(X, structure, p)
    E = sigma[:, None] * Mt
    if Pk.shape[0]:
        j, k = np.triu_indices(p, 1)
        c = (1.0 - K[:, j, k] ** 2) * tau[:, j] * tau[:, k]
        E = np.concatenate([E, c[:, :, None, None] * Pk], axis=1)
    m = E.shape[1]

    blocks, indefinite, pinv = _weights(data, sigma, Ys)
    mu, Ainv, _, indefinite_A, pinv_A = _gls_profile(blocks, p, fixed, values)
    bad = indefinite | pinv | indefinite_A | pinv_A
    ll, G, s_all = _loglik_terms(blocks, p, mu)

    moments = np.zeros((R, pp, 2 * pp + p))
    for (g, _, W, _), s in zip(blocks, s_all):
        n = s.shape[-2]
        w = W.reshape(R, n, -1)
        ss = (s[..., :, None] * s[..., None, :]).reshape(R, n, -1)
        vec = (g.idx[:, None] * p + g.idx).ravel()
        cols = np.concatenate([vec, pp + vec, 2 * pp + g.idx])
        moments[:, vec[:, None], cols] += np.swapaxes(w, 1, 2) @ np.concatenate([w, ss, s], -1)
    T = moments[:, :, :pp].reshape(R, p, p, p, p)
    U = moments[:, :, pp:2 * pp].reshape(R, p, p, p, p)
    V = moments[:, :, 2 * pp:].reshape(R, p, p, p)
    # tr(W E_a W E_b) = sum E_a[j, k] E_b[l, i] W_ij W_kl, s' E_a W E_b s =
    # sum E_a[i, j] E_b[k, l] s_i s_l W_jk and (W E_a s)_i = sum E_a[j, l] W_ij s_l
    Ev = E.reshape(R, m, pp)
    EM = Ev @ np.concatenate(
        [
            T.transpose(0, 2, 3, 4, 1).reshape(R, pp, pp),
            U.transpose(0, 3, 1, 2, 4).reshape(R, pp, pp),
            V.transpose(0, 2, 3, 1).reshape(R, pp, p),
        ],
        axis=-1,
    )
    pair = np.concatenate([EM[:, :, :pp], EM[:, :, pp:2 * pp]], axis=1) @ Ev.swapaxes(1, 2)
    fisher = 0.5 * pair[:, :m]
    q = EM[:, :, 2 * pp:]

    GE = G[:, None] * E
    dl = GE.sum(axis=(2, 3))
    # <G, d2Sigma/dx_a dx_b>: tau rows from the Mt patterns, kappa
    # diagonal from -2 kappa_jk, mixed kappa pairs zero
    C = np.zeros((R, m, m))
    C[:, :nt] = np.einsum("rbij,aij->rab", GE, Mt)
    C[:, nt:, :nt] = np.swapaxes(C[:, :nt, nt:], 1, 2)
    if m > nt:
        kk = np.arange(nt, m)
        C[:, kk, kk] = -2.0 * K[:, j, k] * dl[:, nt:]
    obs = pair[:, m:] - fisher - C
    if Ainv is not None:
        qf = q[:, :, free]
        obs -= qf @ Ainv @ qf.swapaxes(1, 2)
    f = -ll
    f[bad] = np.inf
    return f, -dl, fisher, obs, mu


def _step(H, g, held):
    """Projected Newton direction -H^{-1} g on the free coordinates.

    Held coordinates get no step; eigenvalues are floored at
    CURVATURE_FLOOR times the largest. Returns (d, positive_definite).
    """
    m = g.shape[1]
    keep = ~held
    Hm = np.where(keep[:, :, None] & keep[:, None, :], H, 0.0)
    Hm[:, np.arange(m), np.arange(m)] += held
    w, Q = np.linalg.eigh(Hm)
    pd = w[:, 0] > 0.0
    w = np.maximum(w, CURVATURE_FLOOR * np.abs(w).max(axis=1, keepdims=True))
    d = -np.einsum("rij,rj->ri", Q / w[:, None, :], np.einsum("rji,rj->ri", Q, g * keep))
    return d, pd


def refit_rows(data, Ys, fixed, values, structure, init, starts=None):
    """Constrained ML of the heterogeneity for many outcome sets at once.

    Every row shares data's studies, observation masks and within-study
    covariances; row b's outcomes are Ys[g][b] for each mask group g of
    data._groups (arrays of shape (R, n, k)). The mean components listed
    in fixed are held at values; the others are profiled out by
    generalized least squares at every trial point. One fixed is the
    marginal null of fit_marginal_null, which the t3 test refits for
    each sign row; all fixed is the joint null of fit_eta_given_mu,
    which no test refits, since reflection about the null leaves its
    objective unchanged. The free vector, bounds and objective are the
    scalar fitters'.

    The rows are first refit together by the batched kernel
    (_newton_rows). Each row starts from init, or from its own free
    vector in starts (R, m), clipped into the box, where that row of
    starts is finite and no tau, in it or in init, reads as zero
    (tau_reads_zero): a row started there stays there. A test inside an
    inversion passes each row's solution extrapolated from earlier null
    values, which lies near its solution at this one. A row whose start
    gives a non-finite objective starts from init instead.

    Every row the kernel leaves unconverged (iteration budget, failed
    line search, singular or indefinite covariance) gets one scalar
    L-BFGS-B run (_lbfgs_refit) on its own outcomes, started from init:
    the run fit_eta_given_mu or fit_marginal_null makes on the reflected
    dataset, bit for bit. One rule sends every row there: a non-finite
    objective at init, which only init decides. So a row started from
    init takes the same steps with or without starts.

    Returns (X, mu, by_kernel, failed): free vectors (R, m), the whole
    mean at X (R, p) with the fixed components at values and the others
    profiled, the rows the kernel converged, and the rows whose scalar
    run did not converge, which carry its last iterate. Raises DataError
    where a scalar run ends at an indefinite covariance.
    """
    fixed = np.asarray(fixed, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    structure = _require_structure(structure)
    x0 = _pack(init, structure)
    X, mu, by_kernel = _newton_rows(data, Ys, fixed, values, structure, x0, starts)
    failed = np.zeros(X.shape[0], dtype=bool)
    for b in np.flatnonzero(~by_kernel):
        # C-contiguous copies: a strided row of masked data can move the
        # GLS mean of the scalar pass by an ulp
        Yb = [np.ascontiguousarray(Y[b]) for Y in Ys]
        X[b], mu[b], _, ok, _ = _lbfgs_refit(data, fixed, values, structure, x0, Yb)
        failed[b] = not ok
    return X, mu, by_kernel, failed


def _newton_rows(data, Ys, fixed, values, structure, x0, starts):
    """The batched kernel of refit_rows: every row from x0 or its start.

    The rows move in lock step by projected Newton steps inside the box
    (Bertsekas 1982, SIAM J. Control Optim.):
    Fisher scoring with the expected information 1/2 tr(W dSigma_a W
    dSigma_b) (Jennrich & Schluchter 1986, Biometrics) while the observed
    information is not positive definite on the free coordinates, Newton
    steps once it is, with Armijo backtracking per row. A coordinate at a
    bound whose gradient points outward is held. A row stops once its
    projected gradient is at most ROW_PGTOL.

    Every row tries the full step in one evaluation. The rows it does
    not satisfy then try their next halvings t/2, t/4, ... together, up
    to LADDER of them per row in one evaluation, never more trial points
    than max(full step's rows, LADDER) and never past MAX_HALVINGS; each
    row takes the first that passes. The steps are powers of two and a
    row's evaluation does not depend on the rows beside it, so the
    result is bit for bit that of halving one step per evaluation.

    Returns (X, mu, converged); rows that did not converge carry their
    last iterate and a mean with only the fixed components set. With a
    non-finite objective at x0 no row moves.
    """
    p = data.p
    bounds = np.array(_bounds(structure, p))
    lo, hi = bounds[:, 0], bounds[:, 1]
    Mt, Pk = _derivative_patterns(structure, p)
    R = Ys[0].shape[0]
    X = np.tile(x0, (R, 1))
    mu = np.zeros((R, p))
    mu[:, fixed] = values
    converged = np.zeros(R, dtype=bool)
    free = np.setdiff1d(np.arange(p), fixed)

    def evaluate(rows, Xr):
        return _row_terms(data, [Y[rows] for Y in Ys], Xr, fixed, values, free, structure, Mt, Pk)

    rows = np.arange(R)
    warm = np.zeros(R, dtype=bool)
    # a row started where a tau reads as zero stays there, so a row starts
    # warm only when neither init nor its start has such a tau
    if starts is not None and not tau_reads_zero(x0, structure, p):
        starts = np.clip(starts, lo, hi)
        warm = np.isfinite(starts).all(axis=1) & ~tau_reads_zero(starts, structure, p)
        X[warm] = starts[warm]
    state = evaluate(rows, X)
    lost = np.flatnonzero(warm & ~np.isfinite(state[0]))
    if lost.size:
        X[lost] = x0
        for a, v in zip(state, evaluate(lost, X[lost])):
            a[lost] = v
    if not np.isfinite(state[0]).all():
        # every row left here starts at init, whose marginal covariances
        # do not depend on the outcomes
        return X, mu, converged
    for _ in range(ROW_MAX_ITER):
        f, g, fisher, obs, mu_r = state
        Xr = X[rows]
        pg = np.abs(np.clip(Xr - g, lo, hi) - Xr).max(axis=1)
        done = pg <= ROW_PGTOL
        converged[rows[done]] = True
        mu[rows[done]] = mu_r[done]
        rows, Xr, f, g, fisher, obs = (a[~done] for a in (rows, Xr, f, g, fisher, obs))
        if rows.size == 0:
            break
        held = ((Xr <= lo) & (g > 0.0)) | ((Xr >= hi) & (g < 0.0))
        d, newton = _step(obs, g, held)
        if not newton.all():
            d[~newton], _ = _step(fisher[~newton], g[~newton], held[~newton])
        # Armijo backtracking along the projected path, row by row: the
        # full step first, then the rows still pending try their next
        # halvings together, each row taking the first step that passes
        slack = 4.0 * np.finfo(float).eps * (1.0 + np.abs(f))
        new_X = Xr.copy()
        new_state = None
        accepted = np.zeros(rows.size, dtype=bool)
        pending = np.arange(rows.size)
        tried = 0
        while pending.size and tried <= MAX_HALVINGS:
            n_steps = 1 if tried == 0 else min(
                LADDER, MAX_HALVINGS + 1 - tried, max(rows.size, LADDER) // pending.size
            )
            # exact powers of two, so each trial point has the bits of
            # the one sequential halving reaches
            t = np.ldexp(1.0, -np.arange(tried, tried + n_steps))
            at = np.repeat(pending, n_steps)
            Xt = np.clip(Xr[at] + np.tile(t, pending.size)[:, None] * d[at], lo, hi)
            trial = evaluate(rows[at], Xt)
            decrease = np.einsum("ri,ri->r", g[at], Xt - Xr[at])
            ok = (trial[0] <= f[at] + ARMIJO_C * decrease + slack[at]).reshape(-1, n_steps)
            passed = ok.any(axis=1)
            first = np.arange(pending.size) * n_steps + ok.argmax(axis=1)
            take, landed = first[passed], pending[passed]
            if new_state is None:
                new_state = [np.empty((rows.size,) + a.shape[1:]) for a in trial]
            for a, v in zip(new_state, trial):
                a[landed] = v[take]
            new_X[landed] = Xt[take]
            accepted[landed] = True
            pending = pending[~passed]
            tried += n_steps
        rows = rows[accepted]
        X[rows] = new_X[accepted]
        state = [a[accepted] for a in new_state]
    return X, mu, converged


def moment_between_cov(data, mu):
    """Sign-invariant moment estimator of the between-study covariance.

    Entry (j, k) is taken over the studies O_jk that observe both
    outcomes j and k: (sum of r_ij r_ik - sum of S_ijk) / max(|O_jk|, 1)
    with r_i = y_i - mu, so a pair that no study observes reads 0. On
    complete data that is (1/N) (sum of residual outer products - sum
    of S_i). Unobserved outcomes and covariance entries are read as
    zero, whatever they hold. Reflecting a study about mu changes no
    product r_ij r_ik and no mask, so the matrix is sign-invariant on
    any dataset. Any row/column whose diagonal entry is nonpositive is
    zeroed, then the remainder is clipped at zero by _clip_psd. The
    truncated flag reports whether either step altered the matrix.

    mu has shape (..., p): one einsum and one batched eigh give every
    mean's matrix, bit for bit the one it gets alone, and only matrices
    with a negative eigenvalue are clipped.

    Returns (sigma_mom, truncated), shapes (..., p, p) and (...); a
    1-d mu gives one matrix and a bool.
    """
    mu = np.atleast_1d(np.array(mu, dtype=float))
    if mu.shape[-1] != data.p or not np.all(np.isfinite(mu)):
        raise ValueError(f"mean vector must be a finite vector of length {data.p}")
    observed = data.observed
    pairs = observed[:, :, None] & observed[:, None, :]
    R = np.where(observed, data.Y - mu[..., None, :], 0.0)
    raw = (
        np.einsum("...ni,...nj->...ij", R, R) - np.where(pairs, data.S, 0.0).sum(axis=0)
    ) / np.maximum(pairs.sum(axis=0), 1)
    raw = 0.5 * (raw + np.swapaxes(raw, -1, -2))
    bad = np.diagonal(raw, axis1=-2, axis2=-1) <= 0.0
    M = np.where(bad[..., :, None] | bad[..., None, :], 0.0, raw)
    truncated = (M != raw).any(axis=(-2, -1))
    w = _clip_psd(M)
    truncated |= w[..., 0] < -EPS_PSD * np.maximum(1.0, np.abs(w).max(axis=-1))
    return M, truncated if truncated.ndim else bool(truncated)
