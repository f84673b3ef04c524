"""Core multivariate random-effects model.

Data containers, between-study covariance structures, and the
likelihood, score, and information computations, all with
missing-outcome reduction. Every study contributes only through its
observed subvector and submatrices; unobserved components contribute
exactly zero to the score and information.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DataError

__all__ = [
    "EPS_PSD",
    "RCOND",
    "StudyRecord",
    "Dataset",
    "CovStructure",
    "HetParams",
    "reduce_to_observed",
    "between_cov",
    "study_weights",
    "log_likelihood",
    "score",
    "information",
    "marginal_information",
]

# PSD tolerance: eigenvalues below -EPS_PSD * scale are rejected,
# larger ones are treated as rounding noise and clipped.
EPS_PSD = 1e-10

# relative eigenvalue cutoff below which the pseudoinverse path engages
RCOND = 1e-10

_LOG_2PI = float(np.log(2.0 * np.pi))


def _freeze(arr):
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class StudyRecord:
    """One study: effect estimates, observation mask, within-study covariance.

    Parameters
    ----------
    id : str
        Study label.
    y : array_like, shape (p,)
        Outcome estimates on the working scale. Entries at unobserved
        positions are ignored.
    S : array_like, shape (p, p)
        Known within-study covariance. Rows/columns of unobserved
        components are ignored.
    observed : array_like of bool, shape (p,), optional
        Observation mask. Defaults to all observed.
    """

    id: str
    y: np.ndarray
    S: np.ndarray
    observed: np.ndarray = None

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if y.ndim != 1:
            raise DataError(f"study {self.id}: y must be a vector, got shape {y.shape}")
        p = y.size
        S = np.asarray(self.S, dtype=float)
        if S.shape != (p, p):
            raise DataError(f"study {self.id}: S must be {p}x{p}, got {S.shape}")
        if self.observed is None:
            mask = np.ones(p, dtype=bool)
        else:
            mask = np.asarray(self.observed, dtype=bool)
            if mask.shape != (p,):
                raise DataError(f"study {self.id}: mask must have length {p}")
        if not mask.any():
            raise DataError(f"study {self.id}: no observed outcomes")
        idx = np.flatnonzero(mask)
        y_obs = y[idx]
        if not np.all(np.isfinite(y_obs)):
            raise DataError(f"study {self.id}: non-finite observed outcome")
        S_obs = S[np.ix_(idx, idx)]
        if not np.all(np.isfinite(S_obs)):
            raise DataError(f"study {self.id}: non-finite covariance entry")
        if not np.allclose(S_obs, S_obs.T, rtol=1e-8, atol=1e-12):
            raise DataError(f"study {self.id}: observed covariance block not symmetric")
        diag = np.diag(S_obs)
        if np.any(diag <= 0.0):
            raise DataError(f"study {self.id}: non-positive variance on an observed outcome")
        w = np.linalg.eigvalsh(0.5 * (S_obs + S_obs.T))
        if w[0] < -EPS_PSD * max(1.0, w[-1]):
            raise DataError(f"study {self.id}: observed covariance block not PSD")
        object.__setattr__(self, "y", _freeze(y))
        object.__setattr__(self, "S", _freeze(0.5 * (S + S.T)))
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "observed", mask)

    @property
    def p(self):
        return self.y.size

    @property
    def n_observed(self):
        return int(self.observed.sum())

    def _with_outcomes(self, y):
        # internal fast clone: reflection of already-validated outcomes
        # preserves every record invariant, so validation is skipped
        clone = object.__new__(StudyRecord)
        object.__setattr__(clone, "id", self.id)
        object.__setattr__(clone, "y", _freeze(y))
        object.__setattr__(clone, "S", self.S)
        object.__setattr__(clone, "observed", self.observed)
        return clone


@dataclass(frozen=True, eq=False)
class _MaskGroup:
    """Studies sharing one observation mask, packed for batched linear algebra."""

    idx: np.ndarray      # observed component indices, shape (k,)
    sel: tuple           # np.ix_(idx, idx), precomputed
    members: np.ndarray  # positions of the member studies in the dataset
    Y: np.ndarray        # stacked observed outcomes, shape (n, k)
    S: np.ndarray        # stacked observed covariance blocks, shape (n, k, k)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable collection of studies with a common outcome dimension.

    Parameters
    ----------
    studies : sequence of StudyRecord
    labels : sequence of str, optional
        Outcome names, defaulting to y1..yp.
    scales : sequence of str, optional
        Reporting scale per outcome, one of "identity", "logit", "log".
        Used only by the reporting layer for back-transformation.
    """

    studies: tuple
    labels: tuple = None
    scales: tuple = None

    def __post_init__(self):
        studies = tuple(self.studies)
        if not studies:
            raise DataError("dataset has no studies")
        p = studies[0].p
        for st in studies:
            if st.p != p:
                raise DataError(f"study {st.id}: dimension {st.p} != {p}")
        seen = np.zeros(p, dtype=bool)
        for st in studies:
            seen |= st.observed
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
        object.__setattr__(self, "studies", studies)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "scales", scales)

    @classmethod
    def from_arrays(cls, Y, S, observed=None, ids=None, labels=None, scales=None):
        """Build a dataset from stacked arrays.

        Parameters
        ----------
        Y : array_like, shape (N, p)
        S : array_like, shape (N, p, p)
        observed : array_like of bool, shape (N, p), optional
        ids : sequence of str, optional
        """
        Y = np.asarray(Y, dtype=float)
        S = np.asarray(S, dtype=float)
        N = Y.shape[0]
        if ids is None:
            ids = [f"study{i + 1}" for i in range(N)]
        studies = []
        for i in range(N):
            mask = None if observed is None else observed[i]
            studies.append(StudyRecord(id=str(ids[i]), y=Y[i], S=S[i], observed=mask))
        return cls(studies=tuple(studies), labels=labels, scales=scales)

    @property
    def n_studies(self):
        return len(self.studies)

    @property
    def p(self):
        return self.studies[0].p

    @property
    def complete(self):
        """True when every study observes every outcome."""
        return all(st.observed.all() for st in self.studies)

    def _clone_with(self, studies, groups=None):
        # internal fast clone sharing labels/scales; optionally seeds the
        # packed-group cache when the caller already built it
        clone = object.__new__(Dataset)
        object.__setattr__(clone, "studies", tuple(studies))
        object.__setattr__(clone, "labels", self.labels)
        object.__setattr__(clone, "scales", self.scales)
        if groups is not None:
            clone.__dict__["_groups"] = groups
        return clone

    @cached_property
    def _groups(self):
        """Studies grouped by observation mask for batched evaluation."""
        order = {}
        for pos, st in enumerate(self.studies):
            order.setdefault(st.observed.tobytes(), []).append(pos)
        groups = []
        for key, members in order.items():
            mask = np.frombuffer(key, dtype=bool)
            idx = np.flatnonzero(mask)
            sel = np.ix_(idx, idx)
            Y = np.stack([self.studies[m].y[idx] for m in members])
            S = np.stack([self.studies[m].S[sel] for m in members])
            groups.append(
                _MaskGroup(
                    idx=idx,
                    sel=sel,
                    members=np.asarray(members, dtype=np.intp),
                    Y=_freeze(Y),
                    S=_freeze(S),
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


def _sym_inverse(V, rcond=RCOND):
    """Invert a batch of symmetric matrices by eigendecomposition.

    Eigenvalues below ``rcond`` times the largest are dropped, which
    realizes the Moore-Penrose pseudoinverse on the numerically singular
    subspace; the log-determinant then refers to the retained spectrum.

    Parameters
    ----------
    V : ndarray, shape (..., k, k)

    Returns
    -------
    W : ndarray, shape (..., k, k)
        Inverse (or pseudoinverse) of each matrix.
    logdet : ndarray, shape (...,)
        Log (pseudo-)determinant of each matrix.
    used_pinv : bool
        True when any matrix took the pseudoinverse path.

    Raises
    ------
    DataError
        If any matrix has a meaningfully negative eigenvalue.
    """
    W, logdet, indefinite, pinv = _sym_inverse_flags(V, rcond)
    if indefinite.any():
        raise DataError("indefinite marginal covariance; dataset invalid at these parameters")
    return W, logdet, bool(pinv.any())


def _sym_inverse_flags(V, rcond=RCOND):
    """Batched _sym_inverse that flags failures per matrix instead of raising.

    Returns (W, logdet, indefinite, pinv); the last two are boolean
    arrays of shape V.shape[:-2]. W and logdet of an indefinite matrix
    are finite but meaningless.
    """
    w, Q = np.linalg.eigh(V)
    scale = np.maximum(w[..., -1], 0.0)
    indefinite = w[..., 0] < -EPS_PSD * np.maximum(1.0, scale)
    keep = w > rcond * scale[..., None]
    winv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    logdet = np.where(keep, np.log(np.where(keep, w, 1.0)), 0.0).sum(axis=-1)
    W = (Q * winv[..., None, :]) @ np.swapaxes(Q, -1, -2)
    return W, logdet, indefinite, ~keep.all(axis=-1)


def sym_solve(A, b, rcond=RCOND):
    """Solve the symmetric system A x = b with pseudoinverse fallback.

    Returns (x, used_pinv).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    W, _, used = _sym_inverse(A, rcond=rcond)
    return W @ b, used


def quad_form_inv(A, u, rcond=RCOND):
    """Evaluate u' A^{-1} u robustly, clamped at zero.

    Returns (value, used_pinv).
    """
    x, used = sym_solve(A, u, rcond=rcond)
    return max(float(u @ x), 0.0), used


@dataclass(frozen=True, eq=False)
class ModelTerms:
    """One likelihood pass: value, score, information, covariance gradient."""

    loglik: float
    score: np.ndarray       # dl/dmu, shape (p,)
    information: np.ndarray  # sum of scattered weights, shape (p, p)
    grad_sigma: np.ndarray   # dl/dSigma as a full symmetric matrix
    used_pinv: bool


def _group_weights(data, sigma, rcond=RCOND):
    """Per-group marginal weights (Sigma + S_i)^{-1} on observed blocks.

    Yields (group, W, logdet) with W of shape (n, k, k).
    """
    out = []
    for g in data._groups:
        V = g.S + sigma[g.sel]
        W, logdet, used = _sym_inverse(V, rcond=rcond)
        out.append((g, W, logdet, used))
    return out


def model_terms(data, mu, sigma, rcond=RCOND):
    """Evaluate log-likelihood, score, information and dl/dSigma in one pass.

    The score and information are scattered to full p-dimensional
    coordinates; unobserved components contribute zero.
    """
    p = data.p
    mu = np.asarray(mu, dtype=float)
    ll = 0.0
    U = np.zeros(p)
    info = np.zeros((p, p))
    G = np.zeros((p, p))
    used_any = False
    for g, W, logdet, used in _group_weights(data, sigma, rcond=rcond):
        used_any |= used
        r = g.Y - mu[g.idx]
        Wr = np.einsum("nij,nj->ni", W, r)
        ll -= 0.5 * (logdet.sum() + np.einsum("ni,ni->", Wr, r) + g.Y.size * _LOG_2PI)
        U[g.idx] += Wr.sum(axis=0)
        Wsum = W.sum(axis=0)
        info[g.sel] += Wsum
        G[g.sel] += 0.5 * (np.einsum("ni,nj->ij", Wr, Wr) - Wsum)
    return ModelTerms(loglik=float(ll), score=U, information=info, grad_sigma=G, used_pinv=used_any)


def reduce_to_observed(study, mu, sigma):
    """Restrict (y, mu, S, Sigma) to the study's observed components.

    Returns (y_obs, mu_obs, S_obs, Sigma_obs), order preserved.
    """
    idx = np.flatnonzero(study.observed)
    sel = np.ix_(idx, idx)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    return study.y[idx], mu[idx], study.S[sel], sigma[sel]


def study_weights(study, het, structure):
    """Marginal weight matrix (Sigma + S_i)^{-1} on the observed block.

    Returns (W, used_pinv); used_pinv flags the pseudoinverse fallback
    for numerically singular marginal covariances.
    """
    sigma = between_cov(het, structure)
    idx = np.flatnonzero(study.observed)
    sel = np.ix_(idx, idx)
    V = study.S[sel] + sigma[sel]
    W, _, used = _sym_inverse(V)
    return W, used


def _validate_mu(mu, p):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.shape != (p,):
        raise ValueError(f"mean vector must have length {p}")
    if not np.all(np.isfinite(mu)):
        raise ValueError("mean vector must be finite")
    return mu


def log_likelihood(data, mu, het, structure):
    """Log-likelihood of the random-effects model at (mu, het).

    Each study contributes -0.5 (log|Sigma+S_i| + r' W_i r + p_i log 2pi)
    on its observed block, with r = y_i - mu.
    """
    mu = _validate_mu(mu, data.p)
    sigma = between_cov(het, structure)
    return model_terms(data, mu, sigma).loglik


def score(data, mu, het, structure):
    """Score for the mean: sum of W_i (y_i - mu), scattered to length p."""
    mu = _validate_mu(mu, data.p)
    sigma = between_cov(het, structure)
    return model_terms(data, mu, sigma).score


def information(data, het, structure):
    """Information for the mean: sum of scattered weight matrices.

    Independent of mu; symmetric PSD.
    """
    sigma = between_cov(het, structure)
    return model_terms(data, np.zeros(data.p), sigma).information


def marginal_information(info, component=0):
    """Schur complement of the information on one component.

    Eliminates the remaining components: J = I_aa - I_ac I_cc^{-1} I_ca.
    Equals 1/(I^{-1})_aa when I is invertible. Returns (J, used_pinv).
    """
    info = np.asarray(info, dtype=float)
    p = info.shape[0]
    if not 0 <= component < p:
        raise ValueError(f"component index {component} out of range for p={p}")
    if p == 1:
        return float(info[0, 0]), False
    rest = [j for j in range(p) if j != component]
    Icc = info[np.ix_(rest, rest)]
    Ica = info[rest, component]
    x, used = sym_solve(Icc, Ica)
    J = float(info[component, component] - Ica @ x)
    return max(J, 0.0), used
