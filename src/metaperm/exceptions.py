"""Exception types shared across the package."""


class MetapermError(Exception):
    """Base class for all package errors."""


class DataError(MetapermError):
    """Raised when input data are malformed or numerically invalid.

    Examples: a study with no observed outcomes, a within-study
    covariance block that is meaningfully indefinite, or a network
    ingest whose evidence graph is disconnected.
    """


class SingularInformationError(MetapermError):
    """Raised when the summed information carries no mass for the mean."""


class UninformativeComponentError(MetapermError):
    """Raised when a tested component's Schur information is degenerate."""


class NonConvergenceError(MetapermError):
    """Raised when an iterative fit exhausts its iteration budget.

    Carries the last iterate so callers that tolerate approximate
    solutions (flagged) can still proceed.
    """

    def __init__(self, message, last_result=None):
        super().__init__(message)
        self.last_result = last_result
