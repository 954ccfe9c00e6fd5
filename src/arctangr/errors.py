"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat:
``DomainError``/``DataError`` are argument/input problems, the two
``RuntimeError`` subclasses are numeric failures.
"""


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class DataError(ValueError):
    """A dataset is malformed, degenerate, or unusable for the requested task."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach its tolerance.

    Carries the best value obtained and the achieved error estimate so
    callers can report how far off the integration was.
    """

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class FitConvergenceError(RuntimeError):
    """The optimizer failed to produce a usable optimum."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics if diagnostics is not None else []
