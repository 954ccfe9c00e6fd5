"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat:
``DomainError``/``DataError`` are argument/input problems (exit 3), and
``FitConvergenceError``, a ``RuntimeError``, is a numeric failure (exit 4).
"""


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class DataError(ValueError):
    """A dataset is malformed, degenerate, or unusable for the requested task."""


class FitConvergenceError(RuntimeError):
    """The optimizer failed to produce a usable optimum."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics if diagnostics is not None else []
