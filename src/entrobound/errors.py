"""Exception types shared across the package."""


class EntroboundError(Exception):
    """Base class for all errors raised by this package."""


class NonHermitianError(EntroboundError):
    """Matrix fails the hermiticity check."""


class NoConvergenceError(EntroboundError):
    """Iterative eigensolver failed to converge."""


class NegativeEigenvalueError(EntroboundError):
    """Eigenvalue below the positive-semidefinite clamping tolerance."""


class NotInvertibleError(EntroboundError):
    """Operator is singular or too close to singular for the requested operation."""


class InvalidDeltaError(EntroboundError):
    """Delta outside (0, 1), too small for an invertible ``rho_delta``, or a non-descending grid."""


class TraceNotOneError(EntroboundError):
    """Trace (or weight sum) differs from 1 beyond tolerance."""


class DimensionMismatchError(EntroboundError):
    """Operands have incompatible dimensions or block structure."""


class NotOrthonormalError(EntroboundError):
    """Vectors do not form an orthonormal basis within tolerance."""


class OutOfRangeError(EntroboundError):
    """Scalar argument outside its documented domain."""


class RejectionBudgetExhaustedError(EntroboundError):
    """Rejection sampler exceeded its budget of consecutive rejections."""


class StateFormatError(EntroboundError):
    """State file failed to parse or validate."""
