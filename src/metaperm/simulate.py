"""Simulation harness: scenario presets, data generators, coverage experiments.

Scenarios describe the data-generating process for three families:
logit-transformed binomial pairs (diagnostic-accuracy style), bivariate
Gaussian outcomes with chi-square-drawn within-study variances, and the
trivariate extension of the same, optionally with outcomes masked at
fixed rates. A coverage experiment repeatedly generates data from a
scenario, tests the true parameter with a chosen method, and tallies
the acceptance rate with its binomial Monte Carlo standard error.
"""

import csv
from dataclasses import astuple, dataclass, field, fields, replace
from importlib import resources

import numpy as np
from scipy.special import expit, logit

from .estimators import fit_ml, fit_reml
from .exceptions import DataError, NonConvergenceError, SingularInformationError
from .inference import wald_inference
from .io import CONTINUITY_CORRECTION
from .model import Dataset, _check_component
from .permutation import (
    DEFAULT_SEED,
    _check_alpha,
    _default_plan,
    joint_permutation_test,
    marginal_permutation_test,
)

__all__ = [
    "Scenario",
    "CoverageReport",
    "generate",
    "generate_diagnostic",
    "generate_gaussian",
    "apply_missingness",
    "coverage_experiment",
    "monte_carlo_se",
    "load_scenarios",
]

KINDS = ("diagnostic_binomial", "gaussian_bivariate", "gaussian_trivariate")

# within-study variance draws: scale * chi-square(1) truncated to a range
CHI2_SCALE = 0.25
VAR_RANGE = (0.009, 0.60)

# inclusive range of a diagnostic scenario's per-study binomial sizes
SIZE_LOW = 50
SIZE_HIGH = 200

METHODS = ("ml-wald", "reml-wald", "perm-t1", "perm-t2", "perm-t3")


@dataclass(frozen=True)
class Scenario:
    """Named data-generating configuration.

    mu holds the grand means on the working (model) scale; for the
    binomial kind they are the logits of the success probabilities
    given to the diagnostic constructor. tau holds between-study SDs,
    kappa the common between-study correlation, rho the common
    within-study correlation (Gaussian kinds only; the binomial kind
    has diagonal within-study covariance). missing_rates, when
    nonempty, gives per-outcome masking probabilities. size_low and
    size_high bound the per-study binomial sample sizes (inclusive).
    """

    name: str
    kind: str
    n_studies: int
    mu: tuple
    tau: tuple
    kappa: float
    rho: float = 0.0
    missing_rates: tuple = ()
    size_low: int = SIZE_LOW
    size_high: int = SIZE_HIGH
    delta: tuple = field(default=None)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        p = self.p
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        object.__setattr__(self, "tau", tuple(float(v) for v in self.tau))
        if len(self.mu) != p or len(self.tau) != p:
            raise ValueError(f"scenario {self.name}: mu and tau must have length {p}")
        if any(t < 0 for t in self.tau):
            raise ValueError(f"scenario {self.name}: tau must be nonnegative")
        if not -1.0 < self.kappa < 1.0:
            raise ValueError(f"scenario {self.name}: kappa must be in (-1, 1)")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"scenario {self.name}: rho must be in (-1, 1)")
        if self.n_studies < 2:
            raise ValueError(f"scenario {self.name}: need at least two studies")
        if self.missing_rates:
            rates = tuple(float(r) for r in self.missing_rates)
            if len(rates) != p or any(not 0.0 <= r < 1.0 for r in rates):
                raise ValueError(
                    f"scenario {self.name}: missing rates must be {p} values in [0, 1)"
                )
            object.__setattr__(self, "missing_rates", rates)
        if self.kind == "diagnostic_binomial":
            if not 1 <= self.size_low <= self.size_high:
                raise ValueError(f"scenario {self.name}: invalid study-size range")
            if self.delta is not None:
                d = tuple(float(v) for v in self.delta)
                if len(d) != p or any(not 0.0 < v < 1.0 for v in d):
                    raise ValueError(
                        f"scenario {self.name}: probabilities must lie in (0, 1)"
                    )
                object.__setattr__(self, "delta", d)

    @property
    def p(self):
        return 3 if self.kind == "gaussian_trivariate" else 2

    @property
    def sigma(self):
        """Between-study covariance implied by tau and the common kappa."""
        t = np.asarray(self.tau)
        sig = self.kappa * np.outer(t, t)
        np.fill_diagonal(sig, t * t)
        return sig

    @classmethod
    def diagnostic(
        cls,
        name,
        n_studies,
        delta,
        tau,
        kappa,
        missing_rates=(),
        size_low=SIZE_LOW,
        size_high=SIZE_HIGH,
    ):
        """Binomial-pair scenario from success probabilities delta."""
        d = tuple(float(v) for v in delta)
        if any(not 0.0 < v < 1.0 for v in d):
            raise ValueError("probabilities must lie in (0, 1)")
        return cls(
            name=name,
            kind="diagnostic_binomial",
            n_studies=int(n_studies),
            mu=tuple(float(logit(v)) for v in d),
            tau=tuple(tau),
            kappa=float(kappa),
            missing_rates=tuple(missing_rates),
            size_low=int(size_low),
            size_high=int(size_high),
            delta=d,
        )

    @classmethod
    def gaussian(cls, name, n_studies, p, tau_sq, kappa, rho, missing_rates=()):
        """Zero-mean Gaussian scenario with equal between-study variances."""
        if p not in (2, 3):
            raise ValueError("Gaussian scenarios support 2 or 3 outcomes")
        kind = "gaussian_bivariate" if p == 2 else "gaussian_trivariate"
        tau = float(np.sqrt(tau_sq))
        return cls(
            name=name,
            kind=kind,
            n_studies=int(n_studies),
            mu=(0.0,) * p,
            tau=(tau,) * p,
            kappa=float(kappa),
            rho=float(rho),
            missing_rates=tuple(missing_rates),
        )


@dataclass(frozen=True)
class CoverageReport:
    """Acceptance rate of the truth over simulation replicates.

    replications counts the tallied replicates; non_convergence counts
    replicates excluded because the method failed on them. The Monte
    Carlo standard error is sqrt(coverage * (1 - coverage) / replications).
    """

    scenario: str
    method: str
    target: str
    component: int
    replications: int
    coverage: float
    monte_carlo_se: float
    non_convergence: int
    alpha: float

    def to_row(self):
        return ["" if v is None else v for v in astuple(self)]

    @classmethod
    def header(cls):
        return [f.name for f in fields(cls)]


def monte_carlo_se(p, n):
    """Binomial standard error sqrt(p (1 - p) / n) of a proportion."""
    p = float(p)
    n = int(n)
    if not 0.0 <= p <= 1.0 or n < 1:
        raise ValueError("need a proportion in [0, 1] and a positive count")
    return float(np.sqrt(p * (1.0 - p) / n))


def generate_diagnostic(scenario, seed):
    """Dataset of logit-transformed binomial pairs.

    Per study, true logits are drawn from the between-study normal
    model, converted to probabilities, and two independent binomial
    counts are drawn with sizes uniform on the scenario range. The
    outcomes are the empirical logits with variance 1/X + 1/(n - X) and
    zero within-study correlation. Counts at 0 or n get the standard
    continuity correction before the transform: CONTINUITY_CORRECTION
    (0.5) added to the count and twice to the size.
    """
    if scenario.kind != "diagnostic_binomial":
        raise ValueError(f"scenario {scenario.name} is not a binomial scenario")
    rng = np.random.default_rng(seed)
    N, p = scenario.n_studies, scenario.p
    n = rng.integers(scenario.size_low, scenario.size_high + 1, size=(N, p))
    theta = rng.multivariate_normal(scenario.mu, scenario.sigma, size=N)
    X = rng.binomial(n, expit(theta)).astype(float)
    n = n.astype(float)
    corner = (X == 0.0) | (X == n)
    X[corner] += CONTINUITY_CORRECTION
    n[corner] += 2.0 * CONTINUITY_CORRECTION
    Y = np.log(X / (n - X))
    s2 = 1.0 / X + 1.0 / (n - X)
    S = np.zeros((N, p, p))
    S[:, np.arange(p), np.arange(p)] = s2
    return Dataset.from_arrays(
        Y, S, labels=("sens", "fpr"), scales=("logit", "logit")
    )


def _truncated_chi2_variances(rng, shape):
    """Scaled chi-square(1) draws restricted to VAR_RANGE by rejection."""
    lo, hi = VAR_RANGE
    out = CHI2_SCALE * rng.chisquare(1, size=shape)
    bad = (out < lo) | (out > hi)
    while bad.any():
        out[bad] = CHI2_SCALE * rng.chisquare(1, size=int(bad.sum()))
        bad = (out < lo) | (out > hi)
    return out


def generate_gaussian(scenario, seed):
    """Dataset of Gaussian outcomes with drawn within-study variances.

    Within-study variances come from the truncated scaled chi-square;
    each S_i couples the outcomes through the scenario's common
    within-study correlation. True effects are drawn around the grand
    mean with the scenario's between-study covariance, then observed
    outcomes around the true effects with covariance S_i.
    """
    if scenario.kind not in ("gaussian_bivariate", "gaussian_trivariate"):
        raise ValueError(f"scenario {scenario.name} is not a Gaussian scenario")
    rng = np.random.default_rng(seed)
    N, p = scenario.n_studies, scenario.p
    s2 = _truncated_chi2_variances(rng, (N, p))
    s = np.sqrt(s2)
    S = scenario.rho * np.einsum("ni,nj->nij", s, s)
    S[:, np.arange(p), np.arange(p)] = s2
    theta = rng.multivariate_normal(scenario.mu, scenario.sigma, size=N)
    L = np.linalg.cholesky(S)
    z = rng.standard_normal((N, p))
    Y = theta + np.einsum("nij,nj->ni", L, z)
    return Dataset.from_arrays(Y, S)


def generate(scenario, seed):
    """Dataset from a scenario, applying its masking rates if any.

    The seed is split so the generation and masking streams are
    independent; (scenario, seed) fully determines the result. The two
    streams are the children that ss.spawn(2) gives a fresh sequence,
    derived without spawning, so a SeedSequence seed is not advanced.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    gen_seed, miss_seed = (
        np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (k,), pool_size=ss.pool_size)
        for k in range(2)
    )
    if scenario.kind == "diagnostic_binomial":
        data = generate_diagnostic(scenario, gen_seed)
    else:
        data = generate_gaussian(scenario, gen_seed)
    if scenario.missing_rates and any(r > 0 for r in scenario.missing_rates):
        data = apply_missingness(data, scenario.missing_rates, miss_seed)
    return data


def apply_missingness(data, rates, seed):
    """Mask outcomes independently at per-outcome rates.

    A drawn mask that would leave any study with no observed outcome,
    or any outcome observed nowhere, is redrawn whole, so the result
    always satisfies the dataset invariants. Masking composes with any
    existing masks. All-zero rates return the dataset unchanged.
    """
    p = data.p
    rates = np.asarray(tuple(rates), dtype=float)
    if rates.shape != (p,) or np.any((rates < 0.0) | (rates >= 1.0)):
        raise ValueError(f"need {p} masking rates in [0, 1)")
    if not rates.any():
        return data
    rng = np.random.default_rng(seed)
    for _ in range(100000):
        mask = data.observed & (rng.random((data.n_studies, p)) >= rates)
        if mask.any(axis=1).all() and mask.any(axis=0).all():
            break
    else:
        raise RuntimeError("could not draw a valid missingness pattern")
    return replace(data, observed=mask)


def _normalize_method(method):
    token = str(method).strip().lower().replace("_", "-").replace(" ", "-")
    aliases = {
        "ml": "ml-wald",
        "reml": "reml-wald",
        "t1": "perm-t1",
        "t2": "perm-t2",
        "t3": "perm-t3",
        "permt1": "perm-t1",
        "permt2": "perm-t2",
        "permt3": "perm-t3",
    }
    token = aliases.get(token, token)
    if token not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    return token


def _accepts_truth(data, scenario, method, target, component, plan, alpha, structure):
    mu_true = np.asarray(scenario.mu)
    if method in ("perm-t1", "perm-t2"):
        stat = "cml" if method == "perm-t1" else "moment"
        res = joint_permutation_test(data, mu_true, plan=plan, stat=stat, structure=structure)
        return res.p_value > alpha
    if method == "perm-t3":
        res = marginal_permutation_test(
            data, mu_true[component], component, plan=plan, structure=structure
        )
        return res.p_value > alpha
    fit = fit_ml(data, structure) if method == "ml-wald" else fit_reml(data, structure)
    summary = wald_inference(fit, alpha=alpha, mu_null=mu_true)
    if target == "marginal":
        return bool(summary.covers(mu_true)[component])
    return not summary.reject


def coverage_experiment(
    scenario,
    method,
    reps=500,
    plan=None,
    seed=DEFAULT_SEED,
    alpha=0.05,
    component=0,
    target=None,
    structure=None,
):
    """Monte Carlo coverage of the truth for one scenario and method.

    Each replicate generates a dataset from the scenario with a
    sub-seed derived from (seed, replicate index), tests the true
    parameter, and tallies acceptance. The joint permutation statistics
    and the Wald ellipsoid target the whole mean vector; the marginal
    statistic targets the chosen component, as do Wald intervals when
    target="marginal" is requested for a Wald method; component must
    then index the scenario's outcomes. alpha must lie in (0, 1).
    plan=None means exhaustive up to 12 studies, else DEFAULT_B draws
    from seed. Replicates where the method fails to converge are
    excluded from the tally and counted, so comparator failures cannot
    masquerade as coverage. Results do not depend on evaluation order.
    """
    method = _normalize_method(method)
    if reps < 100:
        raise ValueError("coverage experiments need at least 100 replicates")
    _check_alpha(alpha)
    if target is None:
        target = "marginal" if method == "perm-t3" else "joint"
    if target not in ("joint", "marginal"):
        raise ValueError("target must be 'joint' or 'marginal'")
    if method == "perm-t3" and target != "marginal":
        raise ValueError("the marginal statistic only targets one component")
    if method in ("perm-t1", "perm-t2") and target != "joint":
        raise ValueError("joint statistics cannot target a single component")
    if target == "marginal":
        _check_component(component, scenario.p)
    if method.startswith("perm"):
        plan = _default_plan(plan, scenario.n_studies, seed)
    children = np.random.SeedSequence(seed).spawn(reps)
    hits = 0
    valid = 0
    failures = 0
    for child in children:
        data = generate(scenario, child)
        try:
            ok = _accepts_truth(
                data, scenario, method, target, component, plan, alpha, structure
            )
        except (NonConvergenceError, SingularInformationError, DataError):
            failures += 1
            continue
        valid += 1
        hits += bool(ok)
    if valid == 0:
        raise NonConvergenceError("every replicate failed; no coverage estimate")
    coverage = hits / valid
    return CoverageReport(
        scenario=scenario.name,
        method=method,
        target=target,
        component=component if target == "marginal" else None,
        replications=valid,
        coverage=coverage,
        monte_carlo_se=monte_carlo_se(coverage, valid),
        non_convergence=failures,
        alpha=float(alpha),
    )


def _opt_float(row, key):
    v = row.get(key, "")
    return None if v in ("", None) else float(v)


def load_scenarios(path=None):
    """Scenario presets from a manifest CSV, keyed by name.

    With no path, reads the packaged manifest. Diagnostic rows carry
    success probabilities (delta columns) and between-study SD columns;
    Gaussian rows carry a common between-study variance column (tausq).
    """
    if path is None:
        source = resources.files("metaperm").joinpath("data/scenarios.csv")
        text = source.read_text(encoding="utf-8")
    else:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    out = {}
    reader = csv.DictReader(text.splitlines())
    for row in reader:
        name = row["name"].strip()
        kind = row["kind"].strip()
        if kind not in KINDS:
            raise ValueError(f"scenario {name}: unknown kind {kind!r}")
        n_studies = int(row["n_studies"])
        kappa = float(row["kappa"])
        p = 3 if kind == "gaussian_trivariate" else 2
        raw_rates = [_opt_float(row, f"miss{j}") for j in range(1, p + 1)]
        if all(v is None for v in raw_rates):
            rates = ()
        elif any(v is None for v in raw_rates):
            raise ValueError(f"scenario {name}: specify all {p} missing rates or none")
        else:
            rates = tuple(raw_rates)
        if kind == "diagnostic_binomial":
            scen = Scenario.diagnostic(
                name=name,
                n_studies=n_studies,
                delta=(float(row["delta1"]), float(row["delta2"])),
                tau=(float(row["tau1"]), float(row["tau2"])),
                kappa=kappa,
                missing_rates=rates,
                size_low=int(row.get("size_low") or SIZE_LOW),
                size_high=int(row.get("size_high") or SIZE_HIGH),
            )
        else:
            scen = Scenario.gaussian(
                name=name,
                n_studies=n_studies,
                p=p,
                tau_sq=float(row["tausq"]),
                kappa=kappa,
                rho=float(row["rho"]),
                missing_rates=rates,
            )
        out[name] = scen
    return out
