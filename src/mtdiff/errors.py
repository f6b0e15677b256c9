"""Exception hierarchy shared across the package."""

from __future__ import annotations


class MtdiffError(Exception):
    """Base class for every error raised by this package."""


class GraphError(MtdiffError):
    """Invalid graph input."""


class NotSymmetric(GraphError):
    pass


class NegativeWeight(GraphError):
    pass


class NonzeroDiagonal(GraphError):
    pass


class Disconnected(GraphError):
    pass


class DimensionMismatch(MtdiffError):
    pass


class InvalidArgument(MtdiffError, ValueError):
    """An argument outside its admissible range (a ValueError as well)."""


class NonUniformProfile(MtdiffError):
    """Raised by operations that require a common regressor covariance."""


class SingularSystem(MtdiffError):
    """A linear system that should have been SPD failed to solve."""


class UnstableConfiguration(MtdiffError):
    """A (mu, eta) pair violates at least one stability condition.

    Carries the offending condition names so callers (and the CLI) can report
    exactly which bound failed.
    """

    def __init__(self, message: str, failed: tuple[str, ...] = ()):
        super().__init__(message)
        self.failed = failed


class NumericalDivergence(MtdiffError):
    """A simulation error trajectory exceeded the divergence guard."""

    def __init__(self, message: str, run_index: int, iteration: int):
        super().__init__(message)
        self.run_index = run_index
        self.iteration = iteration


class ConfigError(MtdiffError):
    """Malformed experiment configuration."""
