"""Exception hierarchy shared by all homoglab modules.

Two families matter to callers: ``ValidationError`` for malformed or
out-of-contract inputs (CLI exit code 1) and ``NumericalError`` for
computations that started from valid inputs but failed to meet their
accuracy contract (CLI exit code 2).
"""


class HomoglabError(Exception):
    """Base class for all homoglab errors."""


class ValidationError(HomoglabError, ValueError):
    """Input violates a documented precondition or schema."""


class NumericalError(HomoglabError, RuntimeError):
    """A numerical procedure failed to meet its contract."""


class ConvergenceError(NumericalError):
    """Iterative solver did not meet its stop test.

    Carries the last relative residual in ``residual``.
    """

    def __init__(self, message, residual):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


class CrossValidationError(NumericalError):
    """Two independent computations of the same quantity disagree."""
