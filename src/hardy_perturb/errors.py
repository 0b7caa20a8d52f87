"""Exception classes used across the package.

All errors derive from :class:`HardyPerturbError` so callers can
distinguish library failures from built-in Python errors.
"""


class HardyPerturbError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(HardyPerturbError):
    """Raised when operands have incompatible working orders or shapes."""


class TruncationError(HardyPerturbError):
    """Raised when an operation needs more coefficients than the working order holds."""


class NotLeftInvertibleError(HardyPerturbError):
    """Raised when the Gram block of an operator fails to be positive definite."""


class InvalidKernelError(HardyPerturbError):
    """Raised for tridiagonal kernel data violating its defining pattern."""


class DefinitionViolationError(HardyPerturbError):
    """Raised when perturbation columns violate the defining clauses.

    The ``clauses`` attribute lists the failing clause labels, e.g.
    ``["(ii)"]``.
    """

    def __init__(self, msg, clauses=None):
        super().__init__(msg)
        self.clauses = list(clauses or [])


class EvaluationError(HardyPerturbError):
    """Raised when evaluating a rational function at (or too near) a pole."""


class ModelInconsistencyError(HardyPerturbError):
    """Raised when subspace-model data violates one of its structure conditions.

    The ``condition`` attribute names the failed condition.
    """

    def __init__(self, msg, condition=None):
        super().__init__(msg)
        self.condition = condition


class ExtractionError(HardyPerturbError):
    """Raised when model extraction from a subspace breaks down."""


class UnsupportedConfigurationError(HardyPerturbError):
    """Raised for inputs outside the supported configuration of an operation."""


class PreconditionError(HardyPerturbError):
    """Raised when a documented precondition fails (e.g. a non-invariant subspace)."""
