"""Estimators for the multivariate random-effects model.

Every heterogeneity fit maximizes one objective, _neg_profiled_free: the
log-likelihood with some mean components held fixed and the rest
profiled out by generalized least squares. All components fixed gives
the joint null of fit_eta_given_mu and the ML heterogeneity step; one
fixed gives the marginal null of fit_marginal_null; none fixed with the
restricted term gives REML. The constrained fits are one L-BFGS-B run
each (_fit_constrained); ML and REML alternate a GLS mean update with
that heterogeneity step. refit_rows runs the constrained fit for many
sign-flipped outcome sets at once. The sign-invariant method-of-moments
between-study covariance with truncation completes the module.

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
    IncompleteDataError,
    NonConvergenceError,
    SingularInformationError,
)
from .model import (
    EPS_PSD,
    CovStructure,
    HetParams,
    _group_weights,
    _sym_inverse,
    _sym_inverse_flags,
    between_cov,
    model_terms,
    sym_solve,
)

__all__ = [
    "FitResult",
    "CmlResult",
    "fit_ml",
    "fit_reml",
    "fit_eta_given_mu",
    "fit_marginal_null",
    "moment_between_cov",
    "het_from_cov",
]

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
# still moving after ROW_MAX_ITER steps are left to the scalar fitter
ROW_PGTOL = 1e-9
ROW_MAX_ITER = 100
# Armijo sufficient-decrease constant and step halvings per iteration
ARMIJO_C = 1e-4
MAX_HALVINGS = 30
# eigenvalue floor of a step's curvature, relative to its largest
CURVATURE_FLOOR = 1e-12

# secondary stop for alternating fits: objective stationary to this
# relative level counts as converged even if parameters still jitter
LL_STATIONARY = 1e-10

_LOG_2PI = float(np.log(2.0 * np.pi))


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

    mu_c holds the estimated free mean components (empty when the whole
    mean vector was fixed).
    """

    het: HetParams
    mu_c: np.ndarray
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


def _het_from_free(x, structure, p, snap=True):
    tau_full, K, _ = _unpack(x, structure, p)
    if snap:
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


def _scatter(groups, p):
    """Scattered information sum A and weighted moment b = sum W_i y_i."""
    A = np.zeros((p, p))
    b = np.zeros(p)
    for g, W, _, _ in groups:
        A[g.sel] += W.sum(axis=0)
        b[g.idx] += np.einsum("nij,nj->i", W, g.Y)
    return A, b


def _profiled_mean(groups, p, fixed, values, free):
    """Mean with the fixed components at values and the free ones by GLS.

    The free components solve their block of the mean system through
    _sym_inverse, so the score in them vanishes. Returns (mu, Ainv,
    logdet) with Ainv and logdet those of the free block of the
    information. Raises DataError if that block is indefinite.
    """
    mu = np.empty(p)
    mu[fixed] = values
    if not free.size:
        return mu, np.empty((0, 0)), 0.0
    A, b = _scatter(groups, p)
    Ainv, logdet, _ = _sym_inverse(A[np.ix_(free, free)])
    mu[free] = Ainv @ (b[free] - A[np.ix_(free, fixed)] @ values)
    return mu, Ainv, logdet


def _neg_profiled_free(data, structure, fixed, values, restricted=False):
    """Objective closure: -loglik and its gradient in the free vector.

    The mean components listed in fixed are held at values; the others
    are profiled out by generalized least squares at every trial
    heterogeneity. All components fixed is the joint null (and the ML
    heterogeneity step at the current mean), one fixed the marginal
    null. With restricted=True the objective adds -0.5 log|A| of the free
    block of the information A = sum_i W_i, which with nothing fixed is
    REML. The score in the profiled components vanishes at their GLS
    update, so the profile adds no gradient term; the restricted term
    adds 0.5 sum_i W_i A^{-1} W_i to dl/dSigma.
    """
    p = data.p
    fixed = np.asarray(fixed, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    free = np.setdiff1d(np.arange(p), fixed)
    free_sel = np.ix_(free, free)

    def fun(x):
        tau_full, K, sigma = _unpack(x, structure, p)
        try:
            groups = _group_weights(data, sigma)
            mu, Ainv, logdet_A = _profiled_mean(groups, p, fixed, values, free)
        except DataError:
            return PENALTY, np.zeros_like(x)
        if restricted:
            M = np.zeros((p, p))
            M[free_sel] = Ainv
        ll = 0.0
        G = np.zeros((p, p))
        for g, W, logdet, _ in groups:
            r = g.Y - mu[g.idx]
            Wr = np.einsum("nij,nj->ni", W, r)
            ll -= 0.5 * (logdet.sum() + np.einsum("ni,ni->", Wr, r) + g.Y.size * _LOG_2PI)
            dG = np.einsum("ni,nj->ij", Wr, Wr) - W.sum(axis=0)
            if restricted:
                dG += np.einsum("nij,jk,nkl->il", W, M[g.sel], W)
            G[g.sel] += 0.5 * dG
        if restricted:
            ll -= 0.5 * float(logdet_A)
        g = _chain_grad(G, tau_full, K, structure, p)
        return -ll, -g

    return fun


def _optimize_eta(fun, x0, bounds, max_inner):
    res = minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": max_inner, "maxcor": 20, "ftol": 1e-13, "gtol": 1e-8},
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


def _scatter_info_moment(data, sigma):
    """_scatter at sigma, plus whether any weight took the pseudoinverse."""
    groups = _group_weights(data, sigma)
    A, b = _scatter(groups, data.p)
    return A, b, any(used for *_, used in groups)


def _gls_mean(A, b):
    w = np.linalg.eigvalsh(A)
    if w[-1] <= 0.0:
        raise SingularInformationError("information matrix carries no mass")
    return sym_solve(A, b)


def _naive_mean(data):
    p = data.p
    total = np.zeros(p)
    for y, mask in zip(data.Y, data.observed):
        total[mask] += y[mask]
    return total / data.observed.sum(axis=0)


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


def _require_structure(structure):
    return structure if structure is not None else CovStructure.unstructured()


def _alternating_fit(data, structure, method, tol, max_outer, max_inner):
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
    for iterations in range(1, max_outer + 1):
        _, _, sigma = _unpack(x, structure, p)
        A, b, used = _scatter_info_moment(data, sigma)
        mu_new, used_solve = _gls_mean(A, b)
        pinv_used |= used or used_solve
        objective = restricted if restricted is not None else _neg_profiled_free(
            data, structure, np.arange(p), mu_new
        )
        x_new, ll, ok, _ = _optimize_eta(objective, x, bounds, max_inner)
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
        if delta < tol or settled:
            if ok:
                converged = True
                break
            stalled += 1
            if stalled >= 2:
                break
    result = _finalize(data, x, structure, method, tuple(trace), iterations, pinv_used, converged)
    if not converged:
        raise NonConvergenceError(
            f"{method.upper()} fit did not converge in {max_outer} outer iterations",
            last_result=result,
        )
    return result


def fit_ml(data, structure=None, *, tol=TOL, max_outer=MAX_OUTER, max_inner=MAX_INNER):
    """Maximum likelihood fit by alternating mean and heterogeneity updates.

    The mean step is generalized least squares at the current
    heterogeneity; the heterogeneity step maximizes the likelihood at the
    updated mean. Iterates until the largest parameter change falls
    below tol.

    Raises
    ------
    NonConvergenceError
        When the iteration budget is exhausted; carries the last iterate.
    SingularInformationError
        When the weight sum carries no information about the mean.
    """
    return _alternating_fit(data, structure, "ml", tol, max_outer, max_inner)


def fit_reml(data, structure=None, *, tol=TOL, max_outer=MAX_OUTER, max_inner=MAX_INNER):
    """REML fit: heterogeneity maximizes the restricted log-likelihood.

    The restricted objective internally profiles the mean, so the outer
    alternation settles within a couple of rounds; the reported mean is
    the generalized-least-squares mean at the REML heterogeneity.
    """
    return _alternating_fit(data, structure, "reml", tol, max_outer, max_inner)


def _finalize(data, x, structure, method, trace, iterations, pinv_used, converged):
    p = data.p
    het = _het_from_free(x, structure, p)
    sigma = between_cov(het, structure)
    A, b, used = _scatter_info_moment(data, sigma)
    mu, used_solve = _gls_mean(A, b)
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
        pseudoinverse_used=bool(pinv_used or used or used_solve or t.used_pinv),
        method=method,
        loglik_trace=trace,
    )


def _fit_constrained(data, fixed, values, structure, init, max_inner):
    """Constrained ML of the heterogeneity with the fixed mean components at values.

    One L-BFGS-B run of _neg_profiled_free from init, or from the
    moment-based start. Returns a CmlResult whose mu_c holds the free
    mean components profiled at the fit; raises NonConvergenceError
    carrying it when the optimizer does not converge.
    """
    p = data.p
    structure = _require_structure(structure)
    fixed = np.asarray(fixed, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    free = np.setdiff1d(np.arange(p), fixed)
    if init is not None:
        x0 = _pack(init, structure)
    else:
        mu0 = _naive_mean(data)
        mu0[fixed] = values
        x0 = _default_init(data, mu0, structure)
    fun = _neg_profiled_free(data, structure, fixed, values)
    x, ll, ok, nit = _optimize_eta(fun, x0, _bounds(structure, p), max_inner)
    mu_c = np.empty(0)
    if free.size:
        # the free components at the returned heterogeneity, so their
        # score vanishes exactly at the reported point
        _, _, sigma = _unpack(x, structure, p)
        mu_c = _profiled_mean(_group_weights(data, sigma), p, fixed, values, free)[0][free]
    result = CmlResult(
        het=_het_from_free(x, structure, p),
        mu_c=mu_c,
        loglik=ll,
        converged=ok,
        iterations=nit,
    )
    if not ok:
        raise NonConvergenceError("constrained fit did not converge", last_result=result)
    return result


def fit_eta_given_mu(data, mu_null, structure=None, *, init=None, max_inner=MAX_INNER):
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
    p = data.p
    mu = np.atleast_1d(np.asarray(mu_null, dtype=float))
    if mu.shape != (p,) or not np.all(np.isfinite(mu)):
        raise ValueError(f"null mean must be a finite vector of length {p}")
    return _fit_constrained(data, np.arange(p), mu, structure, init, max_inner)


def fit_marginal_null(data, value, component, structure=None, *, init=None, max_inner=MAX_INNER):
    """Constrained ML with one mean component fixed, the rest free.

    The heterogeneity maximizes the likelihood with the other mean
    components profiled out by generalized least squares at every trial
    point; mu_c reports them at the fit. Any component may be the fixed
    one; for p=1 this is fit_eta_given_mu. iterations counts L-BFGS-B
    iterations.

    Raises
    ------
    NonConvergenceError
        Carries the last iterate in ``last_result``.
    """
    p = data.p
    value = float(value)
    if not 0 <= component < p:
        raise ValueError(f"component index {component} out of range for p={p}")
    if not np.isfinite(value):
        raise ValueError("null value must be finite")
    return _fit_constrained(data, [component], [value], structure, init, max_inner)


def sigma_rows(X, structure, p):
    """between_cov(_het_from_free(x)) for every row of X, shape (R, p, p).

    Snaps tau at or below TAU_SNAP to zero and eigenvalue-clips any
    indefinite assembly at zero, as the scalar path does.
    """
    tau, K, _ = _unpack_rows(X, structure, p)
    tau = np.where(tau <= TAU_SNAP, 0.0, tau)
    sigma = K * (tau[:, :, None] * tau[:, None, :])
    neg = np.linalg.eigvalsh(sigma)[:, 0] < 0.0
    if neg.any():
        w, Q = np.linalg.eigh(sigma[neg])
        clipped = (Q * np.maximum(w, 0.0)[:, None, :]) @ np.swapaxes(Q, -1, -2)
        sigma[neg] = 0.5 * (clipped + np.swapaxes(clipped, -1, -2))
    return sigma


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


def _row_terms(data, Ys, X, fixed, values, structure, Mt, Pk):
    """Objective, gradient and both curvatures of every row at X.

    f is the negative profiled log-likelihood of _neg_profiled_free
    (unrestricted; the components not in fixed profiled by GLS), g its
    gradient in the free vector, fisher the expected
    information 1/2 sum_i tr(W_i E_a W_i E_b) with E_a = dSigma/dx_a on
    study i's observed block, and obs the Hessian of f, including the
    curvature of the mean profile. Rows whose marginal covariance or
    mean system is indefinite or singular get f = inf.

    Returns (f, g, fisher, obs, mu_free).
    """
    p = data.p
    R = X.shape[0]
    nt = Mt.shape[0]
    free = np.setdiff1d(np.arange(p), fixed)
    tau, K, sigma = _unpack_rows(X, structure, p)
    E = sigma[:, None] * Mt
    if Pk.shape[0]:
        j, k = np.triu_indices(p, 1)
        c = (1.0 - K[:, j, k] ** 2) * tau[:, j] * tau[:, k]
        E = np.concatenate([E, c[:, :, None, None] * Pk], axis=1)
    m = E.shape[1]

    bad = np.zeros(R, dtype=bool)
    A = np.zeros((R, p, p))
    b = np.zeros((R, p))
    weights = []
    for g, Y in zip(data._groups, Ys):
        rc = (slice(None),) + g.sel
        W, logdet, indefinite, pinv = _sym_inverse_flags(g.S + sigma[rc][:, None])
        bad |= (indefinite | pinv).any(axis=1)
        A[rc] += W.sum(axis=1)
        b[:, g.idx] += np.einsum("rnij,rnj->ri", W, Y)
        weights.append((W, logdet))

    mu = np.empty((R, p))
    mu[:, fixed] = values
    Ainv = None
    if free.size:
        Ainv, _, indefinite, pinv = _sym_inverse_flags(A[:, free[:, None], free])
        bad |= indefinite | pinv
        rhs = b[:, free] - A[:, free[:, None], fixed] @ values
        mu[:, free] = np.einsum("rij,rj->ri", Ainv, rhs)

    f = np.zeros(R)
    G = np.zeros((R, p, p))
    fisher = np.zeros((R, m, m))
    uWu = np.zeros((R, m, m))
    q = np.zeros((R, m, p))
    for (g, Y), (W, logdet) in zip(zip(data._groups, Ys), weights):
        rc = (slice(None),) + g.sel
        r = Y - mu[:, None, g.idx]
        s = np.einsum("rnij,rnj->rni", W, r)
        f += 0.5 * (logdet.sum(axis=1) + np.einsum("rni,rni->r", s, r) + g.Y.size * _LOG_2PI)
        G[rc] += 0.5 * (np.einsum("rni,rnj->rij", s, s) - W.sum(axis=1))
        Eg = E[(slice(None), slice(None)) + g.sel]
        P = np.einsum("rnij,rajk->rnaik", W, Eg)
        fisher += 0.5 * np.einsum("rnaij,rncji->rac", P, P)
        u = np.einsum("rajk,rnk->rnaj", Eg, s)
        Wu = np.einsum("rnij,rnaj->rnai", W, u)
        uWu += np.einsum("rnai,rnci->rac", u, Wu)
        q[:, :, g.idx] += Wu.sum(axis=1)

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
    obs = uWu - fisher - C
    if Ainv is not None:
        qf = q[:, :, free]
        obs -= np.einsum("rai,rij,rcj->rac", qf, Ainv, qf)
    f[bad] = np.inf
    return f, -dl, fisher, obs, mu[:, free]


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


def refit_rows(data, Ys, fixed, values, structure, init):
    """Constrained ML of the heterogeneity for many outcome sets at once.

    Every row shares data's studies, observation masks and within-study
    covariances; row b's outcomes are Ys[g][b] for each mask group g of
    data._groups (arrays of shape (R, n, k)). The mean components listed
    in fixed are held at values; the others are profiled out by
    generalized least squares at every trial point. All components fixed
    is the joint null of fit_eta_given_mu; one fixed is the marginal null
    of fit_marginal_null. The free vector, bounds and objective are the
    scalar fitters'.

    All rows start from init and move in lock step by projected Newton
    steps inside the box (Bertsekas 1982, SIAM J. Control Optim.):
    Fisher scoring with the expected information 1/2 tr(W dSigma_a W
    dSigma_b) (Jennrich & Schluchter 1986, Biometrics) while the observed
    information is not positive definite on the free coordinates, Newton
    steps once it is, with Armijo backtracking per row. A coordinate at a
    bound whose gradient points outward is held. A row stops once its
    projected gradient is at most ROW_PGTOL.

    Returns (X, mu_free, converged): free vectors (R, m), the free mean
    components profiled at X (R, p - len(fixed)), and the rows that
    converged. Rows that did not (iteration budget, failed line search,
    singular or indefinite covariance) carry their last iterate; callers
    refit those with the scalar fitters.
    """
    p = data.p
    fixed = np.asarray(fixed, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    structure = _require_structure(structure)
    bounds = np.array(_bounds(structure, p))
    lo, hi = bounds[:, 0], bounds[:, 1]
    nt = structure.n_tau(p)
    Mt, Pk = _derivative_patterns(structure, p)
    R = Ys[0].shape[0]
    X = np.tile(_pack(init, structure), (R, 1))
    mu_free = np.zeros((R, p - fixed.size))
    converged = np.zeros(R, dtype=bool)

    def evaluate(rows, Xr):
        return _row_terms(data, [Y[rows] for Y in Ys], Xr, fixed, values, structure, Mt, Pk)

    x0 = X[0]
    if np.any(np.abs(x0[nt:]) >= ZETA_MAX):
        # a start on the |kappa| -> 1 ridge, where kappa has almost no
        # curvature: which boundary maximum the scalar fitter's local
        # search settles in depends on its path, so it decides every row
        return X, mu_free, converged
    rows = np.arange(R)
    state = evaluate(rows, X)
    if not np.isfinite(state[0]).all():
        # the start's marginal covariances do not depend on the outcomes
        return X, mu_free, converged
    for _ in range(ROW_MAX_ITER):
        f, g, fisher, obs, mu_r = state
        Xr = X[rows]
        pg = np.abs(np.clip(Xr - g, lo, hi) - Xr).max(axis=1)
        done = pg <= ROW_PGTOL
        converged[rows[done]] = True
        mu_free[rows[done]] = mu_r[done]
        rows, Xr, f, g, fisher, obs = (a[~done] for a in (rows, Xr, f, g, fisher, obs))
        if rows.size == 0:
            break
        held = ((Xr <= lo) & (g > 0.0)) | ((Xr >= hi) & (g < 0.0))
        d, newton = _step(obs, g, held)
        if not newton.all():
            d[~newton], _ = _step(fisher[~newton], g[~newton], held[~newton])
        # Armijo backtracking along the projected path, row by row
        slack = 4.0 * np.finfo(float).eps * (1.0 + np.abs(f))
        new_X = Xr.copy()
        new_state = None
        accepted = np.zeros(rows.size, dtype=bool)
        pending = np.arange(rows.size)
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            Xt = np.clip(Xr[pending] + t * d[pending], lo, hi)
            trial = evaluate(rows[pending], Xt)
            decrease = np.einsum("ri,ri->r", g[pending], Xt - Xr[pending])
            ok = trial[0] <= f[pending] + ARMIJO_C * decrease + slack[pending]
            if new_state is None:
                new_state = [np.empty((rows.size,) + a.shape[1:]) for a in trial]
            for a, v in zip(new_state, trial):
                a[pending[ok]] = v[ok]
            new_X[pending[ok]] = Xt[ok]
            accepted[pending[ok]] = True
            pending = pending[~ok]
            if pending.size == 0:
                break
            t *= 0.5
        rows = rows[accepted]
        X[rows] = new_X[accepted]
        state = [a[accepted] for a in new_state]
    return X, mu_free, converged


def moment_between_cov(data, mu):
    """Sign-invariant moment estimator of the between-study covariance.

    Computes (1/N) (sum of residual outer products - sum of S_i), zeroes
    any row/column whose diagonal entry is nonpositive, then
    eigenvalue-clips the remainder at zero. The truncated flag reports
    whether either step altered the matrix.

    Requires a complete dataset: the estimator is undefined under
    missing outcomes.

    Returns (sigma_mom, truncated).
    """
    if not data.complete:
        raise IncompleteDataError("moment between-study covariance needs complete data")
    p = data.p
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.shape != (p,) or not np.all(np.isfinite(mu)):
        raise ValueError(f"mean vector must be a finite vector of length {p}")
    R = data.Y - mu
    raw = (np.einsum("ni,nj->ij", R, R) - data.S.sum(axis=0)) / data.n_studies
    raw = 0.5 * (raw + raw.T)
    M = raw.copy()
    bad = np.diag(raw) <= 0.0
    if bad.any():
        M[bad, :] = 0.0
        M[:, bad] = 0.0
    truncated = not np.array_equal(M, raw)
    w, Q = np.linalg.eigh(M)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    if w[0] < -EPS_PSD * scale:
        truncated = True
    if w[0] < 0.0:
        M = (Q * np.maximum(w, 0.0)) @ Q.T
        M = 0.5 * (M + M.T)
    return M, bool(truncated)


def het_from_cov(sigma):
    """Decompose a PSD covariance into HetParams (SDs and correlations)."""
    sigma = np.asarray(sigma, dtype=float)
    tau = np.sqrt(np.maximum(np.diag(sigma), 0.0))
    p = tau.size
    K = np.eye(p)
    for j, k in _pairs(p):
        denom = tau[j] * tau[k]
        K[j, k] = K[k, j] = np.clip(sigma[j, k] / denom, -1.0, 1.0) if denom > 0 else 0.0
    return HetParams(tau=tau, kappa=K)
