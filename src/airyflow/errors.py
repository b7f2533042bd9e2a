"""Exception types raised across the package.

Every error that is part of a documented contract gets its own class so
callers can catch precisely what they expect; all inherit from
:class:`AiryflowError`.
"""


class AiryflowError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteField(AiryflowError, ValueError):
    """A state's phi, length, time or anchor holds a NaN or infinite value."""


class UnknownShape(AiryflowError, KeyError):
    """Requested curve id is not in the shape catalog."""


class InvalidParameter(AiryflowError, ValueError):
    """A shape parameter is missing, unexpected, or out of range."""


class NoConvergence(AiryflowError):
    """Newton inversion of the arc-length function failed to converge."""


class NotRegular(AiryflowError):
    """The curve has a vanishing or non-finite tangent (s_alpha not > 0 somewhere)."""


class WindingError(AiryflowError):
    """Total tangent turning is not +2*pi (clockwise or non-simple input)."""


class ClosureViolation(AiryflowError):
    """Tangent-angle state does not integrate to a closed curve at ``time``."""

    def __init__(self, mean_x: float, mean_y: float, tol: float, time: float):
        self.mean_x = mean_x
        self.mean_y = mean_y
        self.tol = tol
        self.time = time
        super().__init__(
            f"curve does not close: |mean integrand| = ({abs(mean_x):.3e}, "
            f"{abs(mean_y):.3e}) exceeds {tol:.3e}"
        )


class ValidationError(AiryflowError, ValueError):
    """A config or its settings violate a run invariant."""


class NonCommensurateTime(ValidationError):
    """A run time is negative or not a whole number of time steps."""


class BlowUp(AiryflowError):
    """The solution left the configured stability envelope."""

    def __init__(self, step: int, time: float, detail: str):
        self.step = step
        self.time = time
        self.detail = detail
        super().__init__(f"blow-up at step {step} (t={time:.6g}): {detail}")


class StudyFailed(AiryflowError):
    """One or more runs of a study failed; ``errors`` maps each to its message."""

    def __init__(self, errors: dict):
        self.errors = errors
        super().__init__("; ".join(errors.values()))


class NonPositiveError(AiryflowError):
    """A difference norm is below the measurable floor; no order can be formed."""


class ParseError(AiryflowError):
    """Config text is syntactically malformed."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")
