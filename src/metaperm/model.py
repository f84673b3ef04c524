"""Core multivariate random-effects model.

Data containers, between-study covariance structures, and the one
likelihood pass over the mask groups: _weights (W_i = (S_i + Sigma)^{-1}),
_scatter (information and weighted residual sums in p-space),
_gls_profile (the GLS mean of the free components) and _loglik_terms
(log-likelihood and dl/dSigma), with _weighted_residuals giving
each study's W_i (y_i - mu). Each step takes optional leading row
dimensions, so one call evaluates many rows. No other module forms
S_i + Sigma or scatters an observed block: model_terms runs the pass at
one mean and Sigma, and the fitters and statistics call the steps they
need. Every study contributes only through its observed subvector and
submatrices; unobserved components contribute exactly zero.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DataError

__all__ = [
    "EPS_PSD",
    "RCOND",
    "Dataset",
    "CovStructure",
    "HetParams",
    "between_cov",
    "marginal_information",
]

# PSD tolerance: eigenvalues below -EPS_PSD * scale are rejected,
# larger ones are treated as rounding noise and clipped.
EPS_PSD = 1e-10

# relative eigenvalue cutoff below which the pseudoinverse path engages
RCOND = 1e-10

_LOG_2PI = float(np.log(2.0 * np.pi))

_INDEFINITE = "indefinite marginal covariance; dataset invalid at these parameters"


def _freeze(arr):
    return _readonly(np.array(arr, dtype=float))


def _readonly(arr):
    """Mark an array this module owns read-only and return it."""
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class _MaskGroup:
    """Studies sharing one observation mask, packed for batched linear algebra."""

    idx: np.ndarray      # observed component indices, shape (k,)
    sel: tuple           # index of the observed block of any (..., p, p) array
    members: np.ndarray  # positions of the member studies in the dataset
    Y: np.ndarray        # stacked observed outcomes, shape (n, k)
    S: np.ndarray        # stacked observed covariance blocks, shape (n, k, k)


def _reject_first(ids, bad, message):
    """Raise DataError naming the first study, in study order, flagged bad."""
    if bad.any():
        raise DataError(f"study {ids[int(np.argmax(bad))]}: {message}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable stack of studies with a common outcome dimension.

    Every study contributes only through its observed entries, so
    unobserved entries of Y and S may hold anything, NaN included.

    Parameters
    ----------
    Y : array_like, shape (N, p)
        Outcome estimates on the working scale.
    S : array_like, shape (N, p, p)
        Known within-study covariances, stored as 0.5 * (S + S^T).
    observed : array_like of bool, shape (N, p), optional
        Observation masks. Defaults to all observed.
    ids : sequence of str, optional
        Study labels, defaulting to study1..studyN.
    labels : sequence of str, optional
        Outcome names, defaulting to y1..yp.
    scales : sequence of str, optional
        Reporting scale per outcome, one of "identity", "logit", "log".
        Used only by the reporting layer for back-transformation.
    """

    Y: np.ndarray
    S: np.ndarray
    observed: np.ndarray = None
    ids: tuple = None
    labels: tuple = None
    scales: tuple = None

    def __post_init__(self):
        Y = np.array(self.Y, dtype=float, order="C")
        if Y.ndim != 2:
            raise DataError(f"Y must be an N x p array, got shape {Y.shape}")
        N, p = Y.shape
        if N == 0:
            raise DataError("dataset has no studies")
        S = np.array(self.S, dtype=float, order="C")
        if S.shape != (N, p, p):
            raise DataError(f"S must have shape {(N, p, p)}, got {S.shape}")
        if self.observed is None:
            observed = np.ones((N, p), dtype=bool)
        else:
            observed = np.array(self.observed, dtype=bool, order="C")
            if observed.shape != (N, p):
                raise DataError(f"observed must have shape {(N, p)}, got {observed.shape}")
        if self.ids is None:
            ids = tuple(f"study{i + 1}" for i in range(N))
        else:
            ids = tuple(str(i) for i in self.ids)
            if len(ids) != N:
                raise DataError(f"expected {N} study ids, got {len(ids)}")
        _reject_first(ids, ~observed.any(axis=1), "no observed outcomes")
        _reject_first(
            ids, (observed & ~np.isfinite(Y)).any(axis=1), "non-finite observed outcome"
        )
        pairs = observed[:, :, None] & observed[:, None, :]
        _reject_first(
            ids, (pairs & ~np.isfinite(S)).any(axis=(1, 2)), "non-finite covariance entry"
        )
        S_obs = np.where(pairs, S, 0.0)
        asym = ~np.isclose(S_obs, np.swapaxes(S_obs, 1, 2), rtol=1e-8, atol=1e-12)
        _reject_first(ids, asym.any(axis=(1, 2)), "observed covariance block not symmetric")
        _reject_first(
            ids,
            (observed & (np.diagonal(S_obs, axis1=1, axis2=2) <= 0.0)).any(axis=1),
            "non-positive variance on an observed outcome",
        )
        object.__setattr__(self, "Y", _readonly(Y))
        object.__setattr__(self, "S", _readonly(0.5 * (S + np.swapaxes(S, 1, 2))))
        object.__setattr__(self, "observed", _readonly(observed))
        object.__setattr__(self, "ids", ids)
        not_psd = np.zeros(N, dtype=bool)
        for g in self._groups:
            w = np.linalg.eigvalsh(g.S)
            not_psd[g.members] = w[:, 0] < -EPS_PSD * np.maximum(1.0, w[:, -1])
        _reject_first(ids, not_psd, "observed covariance block not PSD")
        seen = observed.any(axis=0)
        if not seen.all():
            missing = [str(j + 1) for j in np.flatnonzero(~seen)]
            raise DataError(f"outcome(s) {', '.join(missing)} observed in no study")
        labels = self.labels
        if labels is None:
            labels = tuple(f"y{j + 1}" for j in range(p))
        else:
            labels = tuple(str(l) for l in labels)
            if len(labels) != p:
                raise DataError(f"expected {p} outcome labels, got {len(labels)}")
        scales = self.scales
        if scales is None:
            scales = ("identity",) * p
        else:
            scales = tuple(scales)
            if len(scales) != p:
                raise DataError(f"expected {p} outcome scales, got {len(scales)}")
            for s in scales:
                if s not in ("identity", "logit", "log"):
                    raise DataError(f"unknown outcome scale {s!r}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "scales", scales)

    @classmethod
    def from_arrays(cls, Y, S, observed=None, ids=None, labels=None, scales=None):
        """Build a dataset from stacked arrays; same as the constructor."""
        return cls(Y=Y, S=S, observed=observed, ids=ids, labels=labels, scales=scales)

    @property
    def n_studies(self):
        return self.Y.shape[0]

    @property
    def p(self):
        return self.Y.shape[1]

    @property
    def complete(self):
        """True when every study observes every outcome."""
        return bool(self.observed.all())

    @cached_property
    def _groups(self):
        """Studies grouped by observation mask for batched evaluation.

        Groups come in order of first appearance and members in study
        order, so every sum over groups and members runs in study order.
        """
        order = {}
        for pos, mask in enumerate(self.observed):
            order.setdefault(mask.tobytes(), []).append(pos)
        groups = []
        for members in order.values():
            members = np.asarray(members, dtype=np.intp)
            idx = np.flatnonzero(self.observed[members[0]])
            groups.append(
                _MaskGroup(
                    idx=idx,
                    sel=(Ellipsis, idx[:, None], idx),
                    members=members,
                    Y=_readonly(self.Y[np.ix_(members, idx)]),
                    S=_readonly(self.S[np.ix_(members, idx, idx)]),
                )
            )
        return tuple(groups)


@dataclass(frozen=True)
class CovStructure:
    """Between-study covariance structure.

    kind is one of:

    - "unstructured": free tau per outcome and free pairwise correlations;
    - "cs": compound symmetry with fixed common correlation ``kappa0`` and
      a free tau per outcome;
    - "cs1": as "cs" but with a single shared tau.
    """

    kind: str
    kappa0: float = None

    def __post_init__(self):
        if self.kind not in ("unstructured", "cs", "cs1"):
            raise ValueError(f"unknown covariance structure {self.kind!r}")
        if self.kind == "unstructured":
            if self.kappa0 is not None:
                raise ValueError("unstructured takes no fixed correlation")
        else:
            k0 = float(self.kappa0)
            if not -1.0 < k0 < 1.0:
                raise ValueError("fixed correlation must lie in (-1, 1)")
            object.__setattr__(self, "kappa0", k0)

    @classmethod
    def unstructured(cls):
        return cls(kind="unstructured")

    @classmethod
    def cs(cls, kappa0):
        return cls(kind="cs", kappa0=kappa0)

    @classmethod
    def cs1(cls, kappa0):
        return cls(kind="cs1", kappa0=kappa0)

    @classmethod
    def parse(cls, text):
        """Parse a CLI token: unstructured, cs:<kappa0> or cs1:<kappa0>."""
        text = text.strip()
        if text == "unstructured":
            return cls.unstructured()
        for prefix, maker in (("cs1:", cls.cs1), ("cs:", cls.cs)):
            if text.startswith(prefix):
                try:
                    return maker(float(text[len(prefix):]))
                except ValueError as exc:
                    raise ValueError(f"bad covariance structure token {text!r}") from exc
        raise ValueError(f"bad covariance structure token {text!r}")

    def n_tau(self, p):
        """Number of free between-study SD parameters."""
        return 1 if self.kind == "cs1" else p

    def n_kappa(self, p):
        """Number of free correlation parameters."""
        return p * (p - 1) // 2 if self.kind == "unstructured" else 0

    def n_free(self, p):
        return self.n_tau(p) + self.n_kappa(p)


@dataclass(frozen=True, eq=False)
class HetParams:
    """Heterogeneity parameters: between-study SDs and correlations.

    tau always has length p (tied entries repeated for the shared-tau
    structure). kappa is a full symmetric correlation matrix for the
    unstructured case and None when the structure fixes it.
    """

    tau: np.ndarray
    kappa: np.ndarray = None

    def __post_init__(self):
        tau = np.atleast_1d(np.asarray(self.tau, dtype=float))
        if tau.ndim != 1 or np.any(tau < 0.0) or not np.all(np.isfinite(tau)):
            raise ValueError("tau must be a finite nonnegative vector")
        object.__setattr__(self, "tau", _freeze(tau))
        if self.kappa is not None:
            p = tau.size
            kappa = np.asarray(self.kappa, dtype=float)
            if kappa.shape != (p, p):
                raise ValueError(f"kappa must be {p}x{p}")
            if not np.allclose(kappa, kappa.T, atol=1e-12):
                raise ValueError("kappa must be symmetric")
            if np.any(np.abs(kappa) > 1.0 + 1e-12):
                raise ValueError("correlations must lie in [-1, 1]")
            if not np.allclose(np.diag(kappa), 1.0, atol=1e-12):
                raise ValueError("kappa must have unit diagonal")
            object.__setattr__(self, "kappa", _freeze(np.clip(kappa, -1.0, 1.0)))

    @property
    def p(self):
        return self.tau.size


def _require_structure(structure):
    """The given between-study structure, unstructured when None."""
    return structure if structure is not None else CovStructure.unstructured()


def _check_component(component, p):
    if not 0 <= component < p:
        raise ValueError(f"component index {component} out of range for p={p}")


def _finite_mean(mu, p, name):
    """mu as a float vector of length p; ValueError unless it is one and finite."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.shape != (p,) or not np.all(np.isfinite(mu)):
        raise ValueError(f"{name} must be a finite vector of length {p}")
    return mu


def _correlation_matrix(het, structure, p):
    if structure.kind == "unstructured":
        if het.kappa is None:
            if p == 1:
                return np.ones((1, 1))
            raise ValueError("unstructured heterogeneity requires a kappa matrix")
        return het.kappa
    K = np.full((p, p), structure.kappa0)
    np.fill_diagonal(K, 1.0)
    return K


def between_cov(het, structure):
    """Assemble the between-study covariance from heterogeneity parameters.

    Sigma[j, j] = tau_j**2 and Sigma[j, k] = kappa_jk tau_j tau_k. An
    indefinite assembly (possible because pairwise correlations need not
    form a PSD matrix) is eigenvalue-clipped at zero.
    """
    het = het if isinstance(het, HetParams) else HetParams(tau=het)
    p = het.p
    K = _correlation_matrix(het, structure, p)
    sigma = K * np.outer(het.tau, het.tau)
    w = np.linalg.eigvalsh(sigma)
    if w[0] < 0.0:
        w, Q = np.linalg.eigh(sigma)
        sigma = (Q * np.maximum(w, 0.0)) @ Q.T
        sigma = 0.5 * (sigma + sigma.T)
    return sigma


def _require_definite(indefinite):
    """Raise DataError if any flagged matrix is indefinite."""
    if np.any(indefinite):
        raise DataError(_INDEFINITE)


def _sym_inverse_flags(V):
    """Invert a batch of symmetric matrices by eigendecomposition.

    Eigenvalues below RCOND times the largest are dropped, which
    realizes the Moore-Penrose pseudoinverse on the numerically singular
    subspace; the log-determinant then refers to the retained spectrum.
    V has shape (..., k, k). Returns (W, logdet, indefinite, pinv): the
    (pseudo)inverses, their log (pseudo)determinants, and boolean flags
    of shape V.shape[:-2] for a meaningfully negative eigenvalue and for
    the pseudoinverse path. W and logdet of an indefinite matrix are
    finite but meaningless.
    """
    w, Q = np.linalg.eigh(V)
    scale = np.maximum(w[..., -1], 0.0)
    indefinite = w[..., 0] < -EPS_PSD * np.maximum(1.0, scale)
    keep = w > RCOND * scale[..., None]
    winv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    logdet = np.where(keep, np.log(np.where(keep, w, 1.0)), 0.0).sum(axis=-1)
    W = (Q * winv[..., None, :]) @ np.swapaxes(Q, -1, -2)
    return W, logdet, indefinite, ~keep.all(axis=-1)


@dataclass(frozen=True, eq=False)
class ModelTerms:
    """One likelihood pass: value, score, information, covariance gradient."""

    loglik: float
    score: np.ndarray       # dl/dmu, shape (p,)
    information: np.ndarray  # sum of scattered weights, shape (p, p)
    grad_sigma: np.ndarray   # dl/dSigma as a full symmetric matrix
    used_pinv: bool


# one mask group's studies in a likelihood pass: the _MaskGroup, outcomes
# (..., n, k), W = (S_i + Sigma)^{-1} (..., n, k, k) and log |S_i + Sigma| (..., n)
_Block = namedtuple("_Block", "g Y W logdet")


def _weights(data, sigma, Ys=None):
    """Step 1 of the likelihood pass: W_i = (S_i + Sigma)^{-1} per mask group.

    sigma has shape (..., p, p), one between-study covariance per row;
    Ys, one array (..., n, k) per mask group, defaults to the data's
    own outcomes. Returns (blocks, indefinite, pinv), the two boolean
    flags of shape sigma.shape[:-2] marking rows where some S_i + Sigma
    is indefinite or took the pseudoinverse. A pass without leading
    dimensions stops at the first indefinite group: no caller uses the
    blocks of an indefinite row.
    """
    indefinite = pinv = False
    blocks = []
    for i, g in enumerate(data._groups):
        sigma_g = sigma.take(g.idx, -2).take(g.idx, -1)[..., None, :, :]
        W, logdet, ind, pv = _sym_inverse_flags(g.S + sigma_g)
        indefinite = indefinite | ind.any(axis=-1)
        pinv = pinv | pv.any(axis=-1)
        blocks.append(_Block(g, g.Y if Ys is None else Ys[i], W, logdet))
        if not indefinite.shape and indefinite:
            break
    return blocks, indefinite, pinv


def _scatter(blocks, p, mu=None):
    """Step 2: the information sum_i W_i and sum_i W_i (y_i - mu) in p-space.

    mu, shape (..., p), defaults to zero; at the model mean the second
    sum is the score. Returns (A, b), shapes (..., p, p) and (..., p).
    """
    lead = blocks[0].W.shape[:-3]
    A = np.zeros(lead + (p, p))
    b = np.zeros(lead + (p,))
    for g, Y, W, _ in blocks:
        r = Y if mu is None else Y - mu.take(g.idx, -1)[..., None, :]
        A[g.sel] += W.sum(axis=-3)
        # through the transpose, as b[..., g.idx] takes numpy's slow path
        b.T[g.idx] += np.einsum("...nij,...nj->...i", W, r).T
    return A, b


def _gls_profile(blocks, p, fixed, values):
    """Step 3: the mean with fixed components at values, the rest by GLS.

    The free components solve their block of the mean system
    A_ff mu_f = b_f - A_fc values, so the score in them vanishes.
    Returns (mu, Ainv, logdet, indefinite, pinv): the mean (..., p),
    the inverse and log-determinant of the free block of the
    information, and per-row flags of that block (False when nothing
    is free).
    """
    lead = blocks[0].W.shape[:-3]
    fixed = np.asarray(fixed, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    mu = np.empty(lead + (p,))
    mu[..., fixed] = values
    if fixed.size == p:
        return mu, None, 0.0, False, False
    free = np.delete(np.arange(p), fixed)
    A, b = _scatter(blocks, p)
    A_f = A.take(free, -2)
    Ainv, logdet, indefinite, pinv = _sym_inverse_flags(A_f.take(free, -1))
    rhs = b.take(free, -1) - A_f.take(fixed, -1) @ values
    mu.T[free] = (Ainv @ rhs[..., None])[..., 0].T
    return mu, Ainv, logdet, indefinite, pinv


def _weighted_residuals(block, mu):
    """Residuals r_i = y_i - mu of one block and W_i r_i, both (..., n, k)."""
    r = block.Y - mu.take(block.g.idx, -1)[..., None, :]
    return r, np.einsum("...nij,...nj->...ni", block.W, r)


def _loglik_terms(blocks, p, mu, restricted=None):
    """Step 4: log-likelihood and dl/dSigma at mean mu, shape (..., p).

    With restricted, the inverse information A^{-1} (..., p, p), dl/dSigma
    gains the REML term 0.5 sum_i W_i A^{-1} W_i. Returns (loglik, G, s):
    loglik of shape (...), G (..., p, p), and s the weighted residuals
    W_i (y_i - mu) of each block, shape (..., n, k).
    """
    ll = 0.0
    G = np.zeros(blocks[0].W.shape[:-3] + (p, p))
    s_all = []
    for block in blocks:
        g, _, W, logdet = block
        r, s = _weighted_residuals(block, mu)
        quad = np.einsum("...ni,...ni->...", s, r)
        ll -= 0.5 * (logdet.sum(axis=-1) + quad + g.Y.size * _LOG_2PI)
        dG = np.einsum("...ni,...nj->...ij", s, s) - W.sum(axis=-3)
        if restricted is not None:
            dG += np.einsum("...nij,...jk,...nkl->...il", W, restricted[g.sel], W)
        G[g.sel] += 0.5 * dG
        s_all.append(s)
    return ll, G, s_all


def _study_rows(data, parts):
    """Per-block arrays (..., n, k) at their studies' entries of zeros (..., N, p)."""
    out = np.zeros(parts[0].shape[:-2] + (data.n_studies, data.p))
    for g, part in zip(data._groups, parts):
        out[(Ellipsis,) + np.ix_(g.members, g.idx)] = part
    return out


def model_terms(data, mu, sigma):
    """Evaluate log-likelihood, score, information and dl/dSigma in one pass.

    Steps 1, 2 and 4 of the pass at one mean and Sigma. The score and
    information are scattered to full p-dimensional coordinates;
    unobserved components contribute zero.
    """
    p = data.p
    mu = np.asarray(mu, dtype=float)
    blocks, indefinite, pinv = _weights(data, sigma)
    _require_definite(indefinite)
    info, U = _scatter(blocks, p, mu)
    ll, G, _ = _loglik_terms(blocks, p, mu)
    return ModelTerms(
        loglik=float(ll), score=U, information=info, grad_sigma=G, used_pinv=bool(pinv)
    )


def marginal_information(info, component=0):
    """Schur complement of the information on one component.

    Eliminates the remaining components: J = I_aa - I_ac I_cc^{-1} I_ca.
    Equals 1/(I^{-1})_aa when I is invertible. Returns (J, used_pinv).
    """
    info = np.asarray(info, dtype=float)
    p = info.shape[0]
    _check_component(component, p)
    if p == 1:
        return float(info[0, 0]), False
    rest = [j for j in range(p) if j != component]
    Icc_inv, _, indefinite, pinv = _sym_inverse_flags(info[np.ix_(rest, rest)])
    _require_definite(indefinite)
    Ica = info[rest, component]
    J = float(info[component, component] - Ica @ (Icc_inv @ Ica))
    return max(J, 0.0), bool(pinv)
