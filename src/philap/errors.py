"""Exception types shared across the package."""


class PhilapError(Exception):
    """Base class for all package errors."""


class EvalDomainError(PhilapError):
    """Evaluation requested outside the numerically trustworthy range."""


class OutOfRangeError(EvalDomainError):
    """A maximizer or root escaped the evaluation domain."""


class SingularIntegrandError(PhilapError):
    """Quadrature of a singular integrand failed to converge."""


class ConstructionError(PhilapError):
    """Invalid parameters for constructing a domain object."""


class UnclassifiableError(PhilapError):
    """Growth comparison returned Neither in both directions."""


class CaseContradictionError(PhilapError):
    """Threshold case data contradicts the classified growth case."""


class SolverError(PhilapError):
    """Iteration failed to converge within its budget."""


class ConfigError(PhilapError):
    """Malformed or unknown configuration input."""
