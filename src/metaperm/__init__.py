"""Permutation-based inference for multivariate random-effects meta-analysis.

The package fits the multivariate random-effects model with
study-specific within-study covariances, possibly missing outcomes, and
a structured between-study covariance. Joint and per-component null
hypotheses about the pooled mean are tested by sign-flipping residuals
around the null, yielding exact (exhaustive) or locally Monte Carlo
(random subset) permutation tests, with confidence intervals and
regions obtained by inverting those tests.
"""

from .exceptions import (
    DataError,
    MetapermError,
    NonConvergenceError,
    SingularInformationError,
    UninformativeComponentError,
)
from .model import (
    CovStructure,
    Dataset,
    HetParams,
    between_cov,
    marginal_information,
    model_terms,
)
from .estimators import (
    CmlResult,
    FitResult,
    fit_eta_given_mu,
    fit_marginal_null,
    fit_ml,
    fit_reml,
    moment_between_cov,
)
from .permutation import (
    NullDistribution,
    PermutationPlan,
    TestResult,
    generate_signs,
    joint_permutation_test,
    marginal_permutation_test,
)
from .inference import (
    Interval,
    RegionGrid,
    WaldSummary,
    confidence_interval,
    confidence_region,
    median_unbiased_estimate,
    wald_inference,
)
from .simulate import (
    CoverageReport,
    Scenario,
    apply_missingness,
    coverage_experiment,
    generate,
    generate_diagnostic,
    generate_gaussian,
    load_scenarios,
    monte_carlo_se,
)
from .io import (
    back_transform,
    ingest_diagnostic,
    ingest_nma,
    ingest_wide,
    results_to_json,
    write_region_csv,
    write_wide,
)

__version__ = "0.1.0"

__all__ = [
    "MetapermError",
    "DataError",
    "NonConvergenceError",
    "SingularInformationError",
    "UninformativeComponentError",
    "Dataset",
    "CovStructure",
    "HetParams",
    "between_cov",
    "model_terms",
    "marginal_information",
    "FitResult",
    "CmlResult",
    "fit_ml",
    "fit_reml",
    "fit_eta_given_mu",
    "fit_marginal_null",
    "moment_between_cov",
    "PermutationPlan",
    "NullDistribution",
    "TestResult",
    "generate_signs",
    "joint_permutation_test",
    "marginal_permutation_test",
    "WaldSummary",
    "Interval",
    "RegionGrid",
    "wald_inference",
    "confidence_interval",
    "median_unbiased_estimate",
    "confidence_region",
    "Scenario",
    "CoverageReport",
    "generate",
    "generate_gaussian",
    "generate_diagnostic",
    "apply_missingness",
    "coverage_experiment",
    "monte_carlo_se",
    "load_scenarios",
    "ingest_wide",
    "write_wide",
    "ingest_diagnostic",
    "ingest_nma",
    "write_region_csv",
    "results_to_json",
    "back_transform",
    "__version__",
]
