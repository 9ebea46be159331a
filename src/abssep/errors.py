"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class InvalidMatrix(ToolkitError, ValueError):
    """Matrix input is malformed (non-finite, wrong shape, not Hermitian...)."""


class InvalidVector(ToolkitError, ValueError):
    """Vector input is malformed (not unit norm, wrong length...)."""


class InvalidDim(ToolkitError, ValueError):
    """Dimension argument out of range."""


class InvalidState(ToolkitError, ValueError):
    """Spectrum or operator does not describe a valid quantum state."""


class UnnormalizedWitness(ToolkitError, ValueError):
    """Witness does not have unit trace."""


class DegenerateWitness(ToolkitError, ValueError):
    """Witness normalization would divide by a (near-)zero trace."""


class DomainError(ToolkitError, ValueError):
    """Scalar argument outside the domain of the requested function."""


class CertificateRejected(ToolkitError):
    """A claimed feasible point, primal or dual, failed verification."""


class NoInteriorPoint(ToolkitError):
    """No strictly feasible starting point is available for the solver."""


class Unbounded(ToolkitError):
    """The objective falls without bound over the feasible set."""


class MaxIterations(ToolkitError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class Unsupported(ToolkitError):
    """Requested operation is outside the supported parameter range."""
