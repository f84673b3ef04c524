"""Shared synthetic fixtures with known generating parameters."""

import numpy as np
import pytest

from metaperm import Dataset


def make_mvn(
    seed,
    n_studies,
    tau=(0.3, 0.4),
    kappa=0.5,
    mu=(0.4, -0.2),
    var_range=(0.03, 0.25),
    rho_range=(-0.2, 0.6),
):
    """Complete dataset drawn from the multivariate random-effects model.

    The generating parameters are returned implicitly through the
    defaults; every test that needs them restates the values it uses.
    """
    rng = np.random.default_rng(seed)
    tau = np.asarray(tau, dtype=float)
    mu = np.asarray(mu, dtype=float)
    p = tau.size
    sigma = np.outer(tau, tau)
    off = np.asarray(kappa, dtype=float) if np.ndim(kappa) else np.full((p, p), kappa)
    sigma = sigma * np.where(np.eye(p, dtype=bool), 1.0, off)
    Y = np.empty((n_studies, p))
    S = np.empty((n_studies, p, p))
    for i in range(n_studies):
        v = rng.uniform(var_range[0], var_range[1], size=p)
        r = rng.uniform(rho_range[0], rho_range[1])
        Si = np.diag(v)
        for j in range(p):
            for k in range(j + 1, p):
                Si[j, k] = Si[k, j] = r * np.sqrt(v[j] * v[k])
        S[i] = Si
        Y[i] = rng.multivariate_normal(mu, sigma + Si)
    return Dataset.from_arrays(Y, S, ids=[f"st{i + 1}" for i in range(n_studies)])


def make_univariate(seed, n_studies, tau=0.25, mu=0.3, var_range=(0.02, 0.12)):
    """Complete univariate dataset with heterogeneity tau."""
    rng = np.random.default_rng(seed)
    s2 = rng.uniform(var_range[0], var_range[1], n_studies)
    y = rng.normal(mu, np.sqrt(tau**2 + s2))
    return Dataset.from_arrays(y[:, None], s2[:, None, None])


@pytest.fixture(scope="session")
def bivariate5():
    """Small complete bivariate dataset; 2^5 = 32 sign assignments."""
    return make_mvn(11, 5)


@pytest.fixture(scope="session")
def bivariate6():
    """Complete bivariate dataset; 2^6 = 64 sign assignments."""
    return make_mvn(7, 6)


@pytest.fixture(scope="session")
def bivariate12():
    """Larger bivariate dataset with clean interval crossings."""
    return make_mvn(
        20240915,
        12,
        mu=(0.5, -0.3),
        var_range=(0.02, 0.10),
        rho_range=(0.0, 0.4),
    )


@pytest.fixture(scope="session")
def univariate10():
    """Univariate dataset used for scalar oracles and fast intervals."""
    return make_univariate(42, 10)


@pytest.fixture(scope="session")
def trivariate_missing():
    """Trivariate dataset with a fixed missingness pattern."""
    complete = make_mvn(
        31,
        10,
        tau=(0.3, 0.35, 0.4),
        kappa=0.4,
        mu=(0.2, 0.0, -0.3),
    )
    observed = np.ones((10, 3), dtype=bool)
    observed[1, 2] = False
    observed[3, 0] = False
    observed[4, 1] = observed[4, 2] = False
    observed[7, 0] = observed[7, 2] = False
    observed[8, 1] = False
    return Dataset.from_arrays(complete.Y, complete.S, observed=observed)
